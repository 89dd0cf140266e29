//! Structured events and a bounded ring-buffer journal.
//!
//! One [`Event`] type serves both observability surfaces: per-packet
//! execution traces (the sim's `process_one_traced`) and the runtime
//! controller's audit journal (deploys, rollbacks, plan rejections,
//! injected faults, profiled windows). A bounded [`EventJournal`] keeps
//! the most recent events and renders them as JSONL for postmortems.

use std::collections::VecDeque;

use crate::json::{escape_json, fmt_f64};

/// What happened. Packet-level kinds carry raw `u32` node/action ids so
/// this crate stays dependency-free; callers map ids back to names.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A packet visited a pipeline node.
    Visit {
        /// Raw id of the visited node.
        node: u32,
    },
    /// A table lookup selected an action.
    Action {
        /// Raw id of the node whose table matched.
        node: u32,
        /// Index of the selected action.
        action: u32,
    },
    /// The controller deployed a new plan.
    Deploy {
        /// Reconfiguration counter after the deploy.
        reconfig: u64,
        /// Estimated per-packet gain of the plan, in nanoseconds.
        est_gain_ns: f64,
        /// Human-readable summaries of the applied steps.
        summary: Vec<String>,
    },
    /// The controller kept the running plan: the search's plan was priced
    /// no higher than it under the window's profile.
    PlanKept {
        /// Estimated per-packet gain of the search's plan, in nanoseconds.
        candidate_gain_ns: f64,
        /// The running plan's gain re-priced under the same profile.
        running_gain_ns: f64,
        /// What deploying the search's plan would cost in compulsory
        /// misses of the flow caches it starts cold, in nanoseconds.
        warmup_ns: f64,
        /// The packets over which a plan's gain is counted: the packets
        /// profiled so far per plan deployed.
        horizon_packets: f64,
    },
    /// A deploy attempt failed after retries.
    DeployFailed {
        /// Attempts made before giving up.
        attempts: u32,
        /// The final error string.
        error: String,
    },
    /// The controller rolled the target back.
    Rollback {
        /// What was restored: `"last-good"` or `"original"`.
        to: String,
    },
    /// The safety verifier rejected a candidate plan.
    PlanRejected {
        /// Violations reported by the verifier.
        violations: Vec<String>,
    },
    /// A chaos-mode fault fired inside the target.
    FaultInjected {
        /// The operation the fault was attached to.
        op: String,
        /// The injected fault.
        fault: String,
    },
    /// A profiling window completed.
    WindowProfiled {
        /// Window length in seconds.
        window_s: f64,
        /// Packets observed in the window.
        packets: u64,
        /// Traffic-drift score against the previous window.
        change: f64,
        /// Whether the controller re-optimized this window.
        reoptimized: bool,
        /// Whether a new plan was deployed this window.
        deployed: bool,
    },
    /// The deploy circuit breaker opened (controller degraded).
    BreakerOpened {
        /// Cooldown ticks before deploys resume.
        cooldown_ticks: u32,
    },
    /// The deploy circuit breaker closed (controller healthy again).
    BreakerClosed,
    /// A live datapath published a new program generation while traffic
    /// kept flowing (epoch/RCU swap).
    GenerationSwap {
        /// The generation id published.
        generation: u64,
        /// Packets in flight at publication (completed under the old
        /// generation).
        in_flight: u64,
        /// Control-plane publish latency in nanoseconds.
        latency_ns: f64,
    },
    /// The compiled datapath was specialized to the profiled traffic
    /// (hot-key guards and the fused runs derived from them).
    Specialize {
        /// The specialization epoch after applying the plan.
        generation: u64,
        /// Tables carrying a hot-key guard afterwards.
        tables: u64,
    },
    /// The compiled datapath reverted to its verbatim lowering (drift,
    /// guard-miss pressure, or an entry op touching a specialized table).
    Despecialize {
        /// The specialization epoch after the revert.
        generation: u64,
        /// Tables still specialized afterwards (0 unless a re-plan
        /// followed in the same window).
        tables: u64,
    },
}

impl EventKind {
    /// Stable lowercase tag used as the `"type"` field in JSONL.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Visit { .. } => "visit",
            EventKind::Action { .. } => "action",
            EventKind::Deploy { .. } => "deploy",
            EventKind::PlanKept { .. } => "plan_kept",
            EventKind::DeployFailed { .. } => "deploy_failed",
            EventKind::Rollback { .. } => "rollback",
            EventKind::PlanRejected { .. } => "plan_rejected",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::WindowProfiled { .. } => "window_profiled",
            EventKind::BreakerOpened { .. } => "breaker_opened",
            EventKind::BreakerClosed => "breaker_closed",
            EventKind::GenerationSwap { .. } => "generation_swap",
            EventKind::Specialize { .. } => "specialize",
            EventKind::Despecialize { .. } => "despecialize",
        }
    }
}

/// A timestamped, sequenced occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number assigned by the journal (or trace).
    pub seq: u64,
    /// Simulated time of the event, in seconds.
    pub t_s: f64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"t_s\":{},\"type\":\"{}\"",
            self.seq,
            fmt_f64(self.t_s),
            self.kind.tag()
        );
        match &self.kind {
            EventKind::Visit { node } => {
                s.push_str(&format!(",\"node\":{node}"));
            }
            EventKind::Action { node, action } => {
                s.push_str(&format!(",\"node\":{node},\"action\":{action}"));
            }
            EventKind::Deploy {
                reconfig,
                est_gain_ns,
                summary,
            } => {
                s.push_str(&format!(
                    ",\"reconfig\":{reconfig},\"est_gain_ns\":{},\"summary\":[{}]",
                    fmt_f64(*est_gain_ns),
                    summary
                        .iter()
                        .map(|x| format!("\"{}\"", escape_json(x)))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            EventKind::PlanKept {
                candidate_gain_ns,
                running_gain_ns,
                warmup_ns,
                horizon_packets,
            } => {
                s.push_str(&format!(
                    ",\"candidate_gain_ns\":{},\"running_gain_ns\":{},\"warmup_ns\":{},\"horizon_packets\":{}",
                    fmt_f64(*candidate_gain_ns),
                    fmt_f64(*running_gain_ns),
                    fmt_f64(*warmup_ns),
                    fmt_f64(*horizon_packets)
                ));
            }
            EventKind::DeployFailed { attempts, error } => {
                s.push_str(&format!(
                    ",\"attempts\":{attempts},\"error\":\"{}\"",
                    escape_json(error)
                ));
            }
            EventKind::Rollback { to } => {
                s.push_str(&format!(",\"to\":\"{}\"", escape_json(to)));
            }
            EventKind::PlanRejected { violations } => {
                s.push_str(&format!(
                    ",\"violations\":[{}]",
                    violations
                        .iter()
                        .map(|x| format!("\"{}\"", escape_json(x)))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            EventKind::FaultInjected { op, fault } => {
                s.push_str(&format!(
                    ",\"op\":\"{}\",\"fault\":\"{}\"",
                    escape_json(op),
                    escape_json(fault)
                ));
            }
            EventKind::WindowProfiled {
                window_s,
                packets,
                change,
                reoptimized,
                deployed,
            } => {
                s.push_str(&format!(
                    ",\"window_s\":{},\"packets\":{packets},\"change\":{},\"reoptimized\":{reoptimized},\"deployed\":{deployed}",
                    fmt_f64(*window_s),
                    fmt_f64(*change)
                ));
            }
            EventKind::BreakerOpened { cooldown_ticks } => {
                s.push_str(&format!(",\"cooldown_ticks\":{cooldown_ticks}"));
            }
            EventKind::BreakerClosed => {}
            EventKind::GenerationSwap {
                generation,
                in_flight,
                latency_ns,
            } => {
                s.push_str(&format!(
                    ",\"generation\":{generation},\"in_flight\":{in_flight},\"latency_ns\":{}",
                    fmt_f64(*latency_ns)
                ));
            }
            EventKind::Specialize { generation, tables }
            | EventKind::Despecialize { generation, tables } => {
                s.push_str(&format!(",\"generation\":{generation},\"tables\":{tables}"));
            }
        }
        s.push('}');
        s
    }
}

/// A bounded ring buffer of [`Event`]s. When full, the oldest event is
/// evicted and counted in [`EventJournal::dropped`], so the journal's
/// memory is constant regardless of run length.
#[derive(Debug, Clone, PartialEq)]
pub struct EventJournal {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
}

impl EventJournal {
    /// Creates a journal retaining at most `cap` events (`cap` is
    /// clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            cap,
            next_seq: 0,
            dropped: 0,
            buf: VecDeque::with_capacity(cap.min(1024)),
        }
    }

    /// Appends an event at simulated time `t_s`, evicting the oldest if
    /// full. Returns the assigned sequence number.
    pub fn push(&mut self, t_s: f64, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event { seq, t_s, kind });
        seq
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events retained before eviction.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted so far due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Iterates the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Renders the retained events as JSONL (one JSON object per line,
    /// trailing newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.buf {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut j = EventJournal::new(3);
        for i in 0..5u32 {
            j.push(i as f64, EventKind::Visit { node: i });
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.total(), 5);
        let seqs: Vec<u64> = j.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let mut j = EventJournal::new(16);
        j.push(0.0, EventKind::Visit { node: 1 });
        j.push(
            0.5,
            EventKind::Deploy {
                reconfig: 2,
                est_gain_ns: 3.25,
                summary: vec!["cache \"t0\"".into()],
            },
        );
        j.push(
            1.0,
            EventKind::PlanRejected {
                violations: vec!["latency bound".into()],
            },
        );
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"seq\":"), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
        }
        // Embedded quotes must be escaped.
        assert!(lines[1].contains("cache \\\"t0\\\""));
    }

    #[test]
    fn non_finite_times_render_as_null() {
        let ev = Event {
            seq: 0,
            t_s: f64::NAN,
            kind: EventKind::BreakerClosed,
        };
        assert!(ev.to_json().contains("\"t_s\":null"));
    }

    #[test]
    fn every_kind_serializes_with_its_tag() {
        let kinds = vec![
            EventKind::Visit { node: 1 },
            EventKind::Action { node: 1, action: 2 },
            EventKind::Deploy {
                reconfig: 1,
                est_gain_ns: 1.0,
                summary: vec![],
            },
            EventKind::PlanKept {
                candidate_gain_ns: 2.5,
                running_gain_ns: 3.0,
                warmup_ns: 1_500.0,
                horizon_packets: 4_096.0,
            },
            EventKind::DeployFailed {
                attempts: 3,
                error: "boom".into(),
            },
            EventKind::Rollback {
                to: "last-good".into(),
            },
            EventKind::PlanRejected { violations: vec![] },
            EventKind::FaultInjected {
                op: "deploy".into(),
                fault: "DeployReject".into(),
            },
            EventKind::WindowProfiled {
                window_s: 1.0,
                packets: 10,
                change: 0.1,
                reoptimized: true,
                deployed: false,
            },
            EventKind::BreakerOpened { cooldown_ticks: 4 },
            EventKind::BreakerClosed,
            EventKind::GenerationSwap {
                generation: 3,
                in_flight: 12,
                latency_ns: 850.0,
            },
            EventKind::Specialize {
                generation: 4,
                tables: 2,
            },
            EventKind::Despecialize {
                generation: 5,
                tables: 0,
            },
        ];
        for kind in kinds {
            let tag = kind.tag();
            let ev = Event {
                seq: 7,
                t_s: 1.5,
                kind,
            };
            let json = ev.to_json();
            assert!(
                json.contains(&format!("\"type\":\"{tag}\"")),
                "{json} missing tag {tag}"
            );
        }
    }
}
