//! The paper's concrete evaluation programs.
//!
//! * [`linear_tables`] — parametric straight-line programs (the Fig. 5 / 9
//!   microbenchmark skeleton: pipelets of four tables replicated by a
//!   scale factor).
//! * [`AclPipeline`] — regular tables followed by reorderable ACL tables
//!   and a routing table (Fig. 2 motivation, Fig. 9a–b reordering).
//! * [`LoadBalancer`] — §5.3.1: eight regular tables, two load-balancing
//!   tables with high entry churn, two ACLs.
//! * [`DashRouting`] — §5.3.2: direction lookup, metadata setup
//!   (appliance/ENI/VNI), connection tracking, three ACL levels, routing.
//! * [`L2L3Acl`] — the PISCES-style L2/L3/ACL pipeline used in §5.3.3.
//! * [`NfComposition`] — §5.3.3: the three NFs composed behind selector
//!   branches, yielding nine pipelets.
//!
//! Every scenario exposes its node and field handles so experiments can
//! steer traffic into specific entries (drop rates, flow churn) and so the
//! runtime controller can exercise the entry-management API.

use crate::traffic::{FieldBias, FlowGen};
use pipeleon_ir::{
    Condition, FieldRef, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph,
    TableEntry, WireBinding,
};

/// The exact-match value ACL entries deny. Traffic generators bias ACL key
/// fields to this value to realize a configured drop rate.
pub const ACL_DROP_VALUE: u64 = 0xDEAD;

/// Builds a straight-line program of `n` tables. Table `i` is keyed on
/// field `f{i % distinct_fields}` with the given match kind and has one
/// action of `prims` primitives (plus a default no-op). Returns the graph
/// and the table ids in order.
pub fn linear_tables(
    n: usize,
    kind: MatchKind,
    prims: usize,
    distinct_fields: usize,
) -> (ProgramGraph, Vec<NodeId>) {
    let mut b = ProgramBuilder::named(format!("linear_{n}"));
    let fields: Vec<FieldRef> = (0..distinct_fields.max(1))
        .map(|i| b.field(&format!("f{i}")))
        .collect();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let field = fields[i % fields.len()];
        let mut tb = b.table(format!("t{i}")).key(field, kind).action(
            "proc",
            (0..prims).map(|_| Primitive::Nop).collect::<Vec<_>>(),
        );
        // Entries give LPM/ternary tables realistic m values (paper §3.1:
        // 3 prefixes for LPM, 5 masks for ternary).
        match kind {
            MatchKind::Exact => {
                for e in 0..4u64 {
                    tb = tb.entry(TableEntry::new(vec![MatchValue::Exact(e)], 0));
                }
            }
            MatchKind::Lpm => {
                for p in 0..3u8 {
                    tb = tb.entry(TableEntry::new(
                        vec![MatchValue::Lpm {
                            value: ((p as u64) + 1) << 40,
                            prefix_len: 8 + 8 * p,
                        }],
                        0,
                    ));
                }
            }
            MatchKind::Ternary | MatchKind::Range => {
                for m in 0..5u64 {
                    tb = tb.entry(TableEntry::with_priority(
                        vec![MatchValue::Ternary {
                            value: m,
                            mask: 0xFF << (8 * m),
                        }],
                        0,
                        m as i32,
                    ));
                }
            }
        }
        ids.push(tb.action_nop("nop").finish());
    }
    (b.seal(ids[0]).expect("valid program"), ids)
}

/// Adds an ACL table keyed on `field`: entry `ACL_DROP_VALUE -> deny`,
/// default permit.
fn acl_table(b: &mut ProgramBuilder, name: &str, field: FieldRef) -> NodeId {
    b.table(name)
        .key(field, MatchKind::Exact)
        .action_nop("permit")
        .action_drop("deny")
        .entry(TableEntry::new(vec![MatchValue::Exact(ACL_DROP_VALUE)], 1))
        .finish()
}

/// Fig. 2 / Fig. 9a–b: `regular` processing tables, then `acls` ACL
/// tables, then a routing table. ACLs are keyed on independent fields so
/// they commute freely.
#[derive(Debug, Clone)]
pub struct AclPipeline {
    /// The program.
    pub graph: ProgramGraph,
    /// Regular (non-reorderable anchor) tables, in order.
    pub regular: Vec<NodeId>,
    /// ACL tables, in order.
    pub acls: Vec<NodeId>,
    /// The final routing table.
    pub routing: NodeId,
    /// Flow fields (keys of the regular tables).
    pub flow_fields: Vec<FieldRef>,
    /// Key field of each ACL.
    pub acl_fields: Vec<FieldRef>,
}

impl AclPipeline {
    /// Builds the pipeline with `num_regular` regular tables and
    /// `num_acls` ACLs.
    pub fn build(num_regular: usize, num_acls: usize) -> Self {
        let mut b = ProgramBuilder::named("acl_pipeline");
        let flow_fields: Vec<FieldRef> = (0..4).map(|i| b.field(&format!("flow.f{i}"))).collect();
        let acl_fields: Vec<FieldRef> = (0..num_acls)
            .map(|i| b.field(&format!("acl.k{i}")))
            .collect();
        let mut regular = Vec::new();
        for i in 0..num_regular {
            regular.push(
                b.table(format!("proc{i}"))
                    .key(flow_fields[i % flow_fields.len()], MatchKind::Exact)
                    .action("proc", vec![Primitive::Nop])
                    .action_nop("nop")
                    .finish(),
            );
        }
        let mut acls = Vec::new();
        for (i, &f) in acl_fields.iter().enumerate() {
            acls.push(acl_table(&mut b, &format!("acl{i}"), f));
        }
        let route_field = flow_fields[0];
        let routing = b
            .table("routing")
            .key(route_field, MatchKind::Lpm)
            .action("fwd", vec![Primitive::Forward { port: 1 }])
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0,
                    prefix_len: 0,
                }],
                0,
            ))
            .finish();
        let _ = routing;
        let root = *regular.first().or(acls.first()).unwrap_or(&routing);
        Self {
            graph: b.seal(root).expect("valid program"),
            regular,
            acls,
            routing,
            flow_fields,
            acl_fields,
        }
    }

    /// A traffic generator where ACL `i` drops `drop_rates[i]` of packets
    /// (biases its key field to [`ACL_DROP_VALUE`]).
    ///
    /// Bias probabilities are conditional so that the *observed* drop rate
    /// at ACL `i` (given survival through earlier ACLs in the listed
    /// order) matches the requested value when ACLs execute in list order.
    pub fn traffic(&self, drop_rates: &[f64], num_flows: usize, seed: u64) -> FlowGen {
        let mut gen = FlowGen::new(
            self.graph.fields.len(),
            self.flow_fields.clone(),
            num_flows,
            seed,
        );
        for (i, &rate) in drop_rates.iter().enumerate() {
            if i < self.acl_fields.len() && rate > 0.0 {
                gen = gen.with_bias(FieldBias {
                    field: self.acl_fields[i],
                    value: ACL_DROP_VALUE,
                    probability: rate,
                });
            }
        }
        gen
    }
}

/// §5.3.1 service load balancer: eight regular tables, two LB tables
/// (exact on the flow tuple, high entry churn), two ACLs.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    /// The program.
    pub graph: ProgramGraph,
    /// The eight regular packet-processing tables.
    pub regular: Vec<NodeId>,
    /// The two load-balancing tables.
    pub lb: Vec<NodeId>,
    /// The two ACL tables.
    pub acls: Vec<NodeId>,
    /// Flow fields.
    pub flow_fields: Vec<FieldRef>,
    /// ACL key fields.
    pub acl_fields: Vec<FieldRef>,
}

impl LoadBalancer {
    /// Builds the load-balancer pipeline.
    pub fn build() -> Self {
        let mut b = ProgramBuilder::named("load_balancer");
        let flow_fields: Vec<FieldRef> = ["ipv4.src", "ipv4.dst", "tcp.sport", "tcp.dport"]
            .iter()
            .map(|n| b.field(n))
            .collect();
        let vip = b.field("lb.vip");
        let backend = b.field("lb.backend");
        let acl_fields = vec![b.field("acl.k0"), b.field("acl.k1")];
        let mut regular = Vec::new();
        for i in 0..8 {
            regular.push(
                b.table(format!("proc{i}"))
                    .key(flow_fields[i % flow_fields.len()], MatchKind::Exact)
                    .action("proc", vec![Primitive::Nop])
                    .action_nop("nop")
                    .finish(),
            );
        }
        let lb1 = b
            .table("lb_vip")
            .key(flow_fields[1], MatchKind::Exact)
            .action("set_vip", vec![Primitive::set(vip, 1)])
            .action_nop("nop")
            .finish();
        let lb2 = b
            .table("lb_backend")
            .key(flow_fields[0], MatchKind::Exact)
            .action("set_backend", vec![Primitive::set(backend, 1)])
            .action_nop("nop")
            .finish();
        let a0 = acl_table(&mut b, "acl0", acl_fields[0]);
        let a1 = acl_table(&mut b, "acl1", acl_fields[1]);
        let mut graph = b.seal(regular[0]).expect("valid program");
        // Wire contract for socket-facing serving: the IPv4 addresses
        // travel in real IPv4 header fields (32-bit, wide enough for any
        // generated flow value); the port-shaped and metadata fields ride
        // in the frame's slot-residue section, because generated flow
        // values exceed a real 16-bit port.
        graph.wire = vec![
            WireBinding {
                wire: "ipv4.src".into(),
                field: "ipv4.src".into(),
            },
            WireBinding {
                wire: "ipv4.dst".into(),
                field: "ipv4.dst".into(),
            },
        ];
        Self {
            graph,
            regular,
            lb: vec![lb1, lb2],
            acls: vec![a0, a1],
            flow_fields,
            acl_fields,
        }
    }

    /// Traffic with per-ACL drop rates (see [`AclPipeline::traffic`]).
    pub fn traffic(&self, drop_rates: &[f64], num_flows: usize, seed: u64) -> FlowGen {
        let mut gen = FlowGen::new(
            self.graph.fields.len(),
            self.flow_fields.clone(),
            num_flows,
            seed,
        );
        for (i, &rate) in drop_rates.iter().enumerate() {
            if i < self.acl_fields.len() && rate > 0.0 {
                gen = gen.with_bias(FieldBias {
                    field: self.acl_fields[i],
                    value: ACL_DROP_VALUE,
                    probability: rate,
                });
            }
        }
        gen
    }
}

/// §5.3.2 DASH-style packet routing: direction lookup, metadata setup
/// (appliance ID, ENI, VNI — small static exact tables), connection
/// tracking, three ACL levels, LPM routing.
#[derive(Debug, Clone)]
pub struct DashRouting {
    /// The program.
    pub graph: ProgramGraph,
    /// Direction-lookup table.
    pub direction: NodeId,
    /// The three metadata tables (appliance, ENI, VNI).
    pub metadata: Vec<NodeId>,
    /// Connection-tracking table.
    pub conntrack: NodeId,
    /// The three ACL levels.
    pub acls: Vec<NodeId>,
    /// The routing table.
    pub routing: NodeId,
    /// Flow fields.
    pub flow_fields: Vec<FieldRef>,
    /// ACL key fields.
    pub acl_fields: Vec<FieldRef>,
}

impl DashRouting {
    /// Builds the DASH pipeline.
    pub fn build() -> Self {
        let mut b = ProgramBuilder::named("dash_routing");
        let flow_fields: Vec<FieldRef> = ["ipv4.src", "ipv4.dst", "udp.sport", "udp.dport"]
            .iter()
            .map(|n| b.field(n))
            .collect();
        let dir = b.field("meta.direction");
        let appliance = b.field("meta.appliance");
        let eni = b.field("meta.eni");
        let vni = b.field("meta.vni");
        let ct_state = b.field("meta.ct_state");
        let acl_fields = vec![b.field("acl.k0"), b.field("acl.k1"), b.field("acl.k2")];

        let small_exact = |b: &mut ProgramBuilder, name: &str, key: FieldRef, out: FieldRef| {
            let mut tb = b
                .table(name)
                .key(key, MatchKind::Exact)
                .action("set", vec![Primitive::set(out, 1)])
                .action_nop("nop");
            for e in 0..4u64 {
                tb = tb.entry(TableEntry::new(vec![MatchValue::Exact(e)], 0));
            }
            tb.finish()
        };
        let direction = small_exact(&mut b, "direction_lookup", flow_fields[3], dir);
        let metadata = vec![
            small_exact(&mut b, "appliance_id", flow_fields[0], appliance),
            small_exact(&mut b, "eni_lookup", flow_fields[1], eni),
            small_exact(&mut b, "vni_lookup", flow_fields[2], vni),
        ];
        let conntrack = b
            .table("conntrack")
            .key(flow_fields[0], MatchKind::Exact)
            .key(flow_fields[1], MatchKind::Exact)
            .key(flow_fields[2], MatchKind::Exact)
            .key(flow_fields[3], MatchKind::Exact)
            .action("track", vec![Primitive::set(ct_state, 1)])
            .action_nop("nop")
            .finish();
        let mut acls = Vec::new();
        for (i, &f) in acl_fields.iter().enumerate() {
            acls.push(acl_table(&mut b, &format!("acl_level{i}"), f));
        }
        let routing = b
            .table("routing")
            .key(flow_fields[1], MatchKind::Lpm)
            .action("fwd", vec![Primitive::Forward { port: 1 }])
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0,
                    prefix_len: 0,
                }],
                0,
            ))
            .finish();
        let _ = routing;
        Self {
            graph: b.seal(direction).expect("valid program"),
            direction,
            metadata,
            conntrack,
            acls,
            routing,
            flow_fields,
            acl_fields,
        }
    }

    /// Traffic with per-ACL drop rates, `num_flows` flows, and Zipf skew
    /// `zipf_s` ("long-lived flows" = high skew / fewer active flows).
    pub fn traffic(&self, drop_rates: &[f64], num_flows: usize, zipf_s: f64, seed: u64) -> FlowGen {
        let mut gen = FlowGen::new(
            self.graph.fields.len(),
            self.flow_fields.clone(),
            num_flows,
            seed,
        )
        .with_zipf(zipf_s);
        for (i, &rate) in drop_rates.iter().enumerate() {
            if i < self.acl_fields.len() && rate > 0.0 {
                gen = gen.with_bias(FieldBias {
                    field: self.acl_fields[i],
                    value: ACL_DROP_VALUE,
                    probability: rate,
                });
            }
        }
        gen
    }
}

/// The PISCES-style L2/L3/ACL pipeline (§5.3.3 component): source MAC,
/// destination MAC, IPv4 LPM, one ternary ACL.
#[derive(Debug, Clone)]
pub struct L2L3Acl {
    /// The program.
    pub graph: ProgramGraph,
    /// smac, dmac, ipv4 LPM, ACL, in order.
    pub tables: Vec<NodeId>,
    /// Flow fields.
    pub flow_fields: Vec<FieldRef>,
}

impl L2L3Acl {
    /// Builds the standalone pipeline.
    pub fn build() -> Self {
        let mut b = ProgramBuilder::named("l2l3_acl");
        let ((), tables, flow_fields) = Self::build_into(&mut b, "");
        Self {
            graph: b.seal(tables[0]).expect("valid program"),
            tables,
            flow_fields,
        }
    }

    /// Appends the pipeline's tables into an existing builder (used by NF
    /// composition); caller wires them. Returns `((), ids, fields)`.
    fn build_into(b: &mut ProgramBuilder, prefix: &str) -> ((), Vec<NodeId>, Vec<FieldRef>) {
        let smac_f = b.field(&format!("{prefix}eth.smac"));
        let dmac_f = b.field(&format!("{prefix}eth.dmac"));
        let dst_f = b.field(&format!("{prefix}ipv4.dst"));
        let acl_f = b.field(&format!("{prefix}acl.key"));
        let smac = b
            .table(format!("{prefix}smac"))
            .key(smac_f, MatchKind::Exact)
            .action_nop("known")
            .action_nop("learn")
            .finish();
        let dmac = b
            .table(format!("{prefix}dmac"))
            .key(dmac_f, MatchKind::Exact)
            .action("fwd", vec![Primitive::Forward { port: 2 }])
            .action_nop("flood")
            .finish();
        let lpm = b
            .table(format!("{prefix}ipv4_lpm"))
            .key(dst_f, MatchKind::Lpm)
            .action("route", vec![Primitive::Nop, Primitive::Nop])
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0x0A00_0000_0000_0000,
                    prefix_len: 8,
                }],
                0,
            ))
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0x0A0A_0000_0000_0000,
                    prefix_len: 16,
                }],
                0,
            ))
            .finish();
        let acl = b
            .table(format!("{prefix}acl"))
            .key(acl_f, MatchKind::Ternary)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::with_priority(
                vec![MatchValue::Ternary {
                    value: ACL_DROP_VALUE,
                    mask: 0xFFFF,
                }],
                1,
                1,
            ))
            .finish();
        (
            (),
            vec![smac, dmac, lpm, acl],
            vec![smac_f, dmac_f, dst_f, acl_f],
        )
    }
}

/// §5.3.3 NF composition: load balancer + DASH routing + L2/L3/ACL behind
/// selector branches — nine pipelets in total.
#[derive(Debug, Clone)]
pub struct NfComposition {
    /// The program.
    pub graph: ProgramGraph,
    /// The selector field: 0 → LB, 1 → DASH, 2 → L2/L3/ACL.
    pub selector: FieldRef,
    /// Entry (first table) of each NF chain.
    pub nf_entries: Vec<NodeId>,
    /// All tables of each NF, in execution order.
    pub nf_tables: Vec<Vec<NodeId>>,
    /// Flow fields used by the traffic generator.
    pub flow_fields: Vec<FieldRef>,
    /// ACL-ish key fields per NF for drop biasing.
    pub acl_fields: Vec<FieldRef>,
}

impl NfComposition {
    /// Builds the composed program.
    pub fn build() -> Self {
        let mut b = ProgramBuilder::named("nf_composition");
        let selector = b.field("meta.nf_selector");
        let flow_fields: Vec<FieldRef> = ["ipv4.src", "ipv4.dst", "l4.sport", "l4.dport"]
            .iter()
            .map(|n| b.field(n))
            .collect();

        // NF1: a compact load balancer (4 regular + LB + ACL).
        let mut nf1 = Vec::new();
        let lb_acl_f = b.field("nf1.acl");
        for i in 0..4 {
            nf1.push(
                b.table(format!("nf1.proc{i}"))
                    .key(flow_fields[i % flow_fields.len()], MatchKind::Exact)
                    .action("proc", vec![Primitive::Nop])
                    .action_nop("nop")
                    .finish(),
            );
        }
        let backend = b.field("nf1.backend");
        nf1.push(
            b.table("nf1.lb")
                .key(flow_fields[0], MatchKind::Exact)
                .action("set_backend", vec![Primitive::set(backend, 1)])
                .action_nop("nop")
                .finish(),
        );
        nf1.push(acl_table(&mut b, "nf1.acl", lb_acl_f));
        for w in nf1.windows(2) {
            b.set_next(w[0], Some(w[1]));
        }
        b.set_next(*nf1.last().expect("nonempty"), None);

        // NF2: compact DASH routing (direction + 2 metadata + ACL + route).
        let mut nf2 = Vec::new();
        let dash_acl_f = b.field("nf2.acl");
        let dir = b.field("nf2.direction");
        nf2.push(
            b.table("nf2.direction")
                .key(flow_fields[3], MatchKind::Exact)
                .action("set_dir", vec![Primitive::set(dir, 1)])
                .action_nop("nop")
                .finish(),
        );
        for (i, name) in ["nf2.eni", "nf2.vni"].iter().enumerate() {
            nf2.push(
                b.table(*name)
                    .key(flow_fields[i], MatchKind::Exact)
                    .action("set", vec![Primitive::Nop])
                    .action_nop("nop")
                    .finish(),
            );
        }
        nf2.push(acl_table(&mut b, "nf2.acl", dash_acl_f));
        nf2.push(
            b.table("nf2.routing")
                .key(flow_fields[1], MatchKind::Lpm)
                .action("fwd", vec![Primitive::Forward { port: 3 }])
                .entry(TableEntry::new(
                    vec![MatchValue::Lpm {
                        value: 0,
                        prefix_len: 0,
                    }],
                    0,
                ))
                .finish(),
        );
        for w in nf2.windows(2) {
            b.set_next(w[0], Some(w[1]));
        }
        b.set_next(*nf2.last().expect("nonempty"), None);

        // NF3: L2/L3/ACL.
        let (_, nf3, _nf3_fields) = L2L3Acl::build_into(&mut b, "nf3.");
        for w in nf3.windows(2) {
            b.set_next(w[0], Some(w[1]));
        }
        b.set_next(*nf3.last().expect("nonempty"), None);
        let nf3_acl_f = b.field("nf3.acl.key");

        // Selector branches: sel < 1 -> NF1; else sel < 2 -> NF2; else NF3.
        let inner = b.branch(
            "sel_dash",
            Condition::lt(selector, 2),
            Some(nf2[0]),
            Some(nf3[0]),
        );
        let outer = b.branch(
            "sel_lb",
            Condition::lt(selector, 1),
            Some(nf1[0]),
            Some(inner),
        );
        let acl_fields = vec![lb_acl_f, dash_acl_f, nf3_acl_f];
        let nf_entries = vec![nf1[0], nf2[0], nf3[0]];
        Self {
            graph: b.seal(outer).expect("valid program"),
            selector,
            nf_entries,
            nf_tables: vec![nf1, nf2, nf3],
            flow_fields,
            acl_fields,
        }
    }

    /// Traffic sending `shares[i]` of packets to NF `i` (shares should sum
    /// to ≤ 1; the remainder goes to NF3).
    pub fn traffic(&self, shares: &[f64; 2], num_flows: usize, seed: u64) -> NfTrafficGen {
        NfTrafficGen {
            inner: FlowGen::new(
                self.graph.fields.len(),
                self.flow_fields.clone(),
                num_flows,
                seed,
            ),
            selector: self.selector,
            shares: *shares,
            seq: 0,
        }
    }
}

/// Specialization benchmark pipeline: ternary classifiers (multi-mask
/// linear scans — the expensive general path a hot-key guard
/// short-circuits), exact flow tables (inline-cache targets), one small
/// dense exact table whose keys span `0..CLASS_ENTRIES` and whose top
/// value sits near the majority bar, and an LPM route. Traffic is Zipf-skewed with configurable exponent, and
/// [`SkewedPipeline::traffic_flipped`] remaps the popular flows onto
/// disjoint key values mid-experiment (drift that must de-specialize).
#[derive(Debug, Clone)]
pub struct SkewedPipeline {
    /// The program.
    pub graph: ProgramGraph,
    /// Ternary classifier tables, in order.
    pub ternary: Vec<NodeId>,
    /// Exact-match flow tables, in order.
    pub exact: Vec<NodeId>,
    /// The final LPM routing table.
    pub routing: NodeId,
    /// Flow fields (keys of the classifier and flow tables).
    pub flow_fields: Vec<FieldRef>,
    /// Key field of the dense class table.
    pub class_field: FieldRef,
}

/// Entry count of [`SkewedPipeline`]'s dense class table.
pub const CLASS_ENTRIES: u64 = 8;

impl SkewedPipeline {
    /// Builds the pipeline with `num_ternary` classifiers and `num_exact`
    /// flow tables, five masked entries per classifier.
    pub fn build(num_ternary: usize, num_exact: usize) -> Self {
        Self::build_with_entries(num_ternary, num_exact, 5)
    }

    /// [`SkewedPipeline::build`] with a configurable classifier ruleset
    /// size. Every ternary lookup is a priority scan over
    /// `ternary_entries` masked rules, so this dial sets how much work a
    /// hot-key guard hit gets to skip — realistic ACLs run hundreds of
    /// rules, which is where Morpheus-style specialization earns its
    /// keep.
    pub fn build_with_entries(num_ternary: usize, num_exact: usize, ternary_entries: u64) -> Self {
        let mut b = ProgramBuilder::named("skewed_pipeline");
        let flow_fields: Vec<FieldRef> = ["ipv4.src", "ipv4.dst", "l4.sport", "l4.dport"]
            .iter()
            .map(|n| b.field(n))
            .collect();
        let class_field = b.field("meta.class");
        let qos = b.field("meta.qos");
        let mut ternary = Vec::new();
        for i in 0..num_ternary {
            let mut tb = b
                .table(format!("classify{i}"))
                .key(flow_fields[i % flow_fields.len()], MatchKind::Ternary)
                .action("mark", vec![Primitive::Nop])
                .action_nop("miss");
            // Masked entries spread over distinct mask patterns, so the
            // general path probes one way per pattern (up to 32) like a
            // real multi-pattern ACL. Values sit above bit 20 while
            // generated flow values stay below it, so no rule ever
            // matches — the default-action outcome is the bakeable hot
            // verdict.
            for m in 0..ternary_entries {
                let shift = 20 + (m % 32);
                tb = tb.entry(TableEntry::with_priority(
                    vec![MatchValue::Ternary {
                        value: ((m % 255) + 1) << shift,
                        mask: 0xFF << shift,
                    }],
                    0,
                    m as i32,
                ));
            }
            ternary.push(tb.finish());
        }
        let mut exact = Vec::new();
        for i in 0..num_exact {
            let mut tb = b
                .table(format!("flow{i}"))
                .key(flow_fields[i % flow_fields.len()], MatchKind::Exact)
                .action("proc", vec![Primitive::Nop])
                .action_nop("nop");
            for e in 0..4u64 {
                tb = tb.entry(TableEntry::new(vec![MatchValue::Exact(e)], 0));
            }
            exact.push(tb.finish());
        }
        let mut ct = b
            .table("class_map")
            .key(class_field, MatchKind::Exact)
            .action("set_qos", vec![Primitive::set(qos, 1)])
            .action_nop("best_effort");
        for e in 0..CLASS_ENTRIES {
            ct = ct.entry(TableEntry::new(vec![MatchValue::Exact(e)], 0));
        }
        let classes = ct.finish();
        let routing = b
            .table("routing")
            .key(flow_fields[1], MatchKind::Lpm)
            .action("fwd", vec![Primitive::Forward { port: 1 }])
            .entry(TableEntry::new(
                vec![MatchValue::Lpm {
                    value: 0,
                    prefix_len: 0,
                }],
                0,
            ))
            .finish();
        let _ = routing;
        let root = *ternary.first().or(exact.first()).unwrap_or(&classes);
        Self {
            graph: b.seal(root).expect("valid program"),
            ternary,
            exact,
            routing,
            flow_fields,
            class_field,
        }
    }

    /// Zipf-skewed traffic (`skew` = 0 is uniform). Class values spread
    /// over a few dense-table entries via biases; unbiased packets hit
    /// entry 0 (the field defaults to 0).
    pub fn traffic(&self, skew: f64, num_flows: usize, seed: u64) -> FlowGen {
        let mut gen = FlowGen::new(
            self.graph.fields.len(),
            self.flow_fields.clone(),
            num_flows,
            seed,
        )
        .with_zipf(skew);
        for (v, p) in [(1u64, 0.25), (2, 0.2), (3, 0.15)] {
            gen = gen.with_bias(FieldBias {
                field: self.class_field,
                value: v,
                probability: p,
            });
        }
        gen
    }

    /// The same distribution shifted onto a disjoint flow universe: the
    /// popular ranks map to entirely different field values, so every
    /// baked hot key goes stale at once (the de-specialization stimulus).
    pub fn traffic_flipped(&self, skew: f64, num_flows: usize, seed: u64) -> FlowGen {
        self.traffic(skew, num_flows, seed)
            .with_flow_base(num_flows as u64)
    }
}

/// Traffic generator splitting packets across NFs by the selector field.
#[derive(Debug, Clone)]
pub struct NfTrafficGen {
    inner: FlowGen,
    selector: FieldRef,
    shares: [f64; 2],
    seq: u64,
}

impl NfTrafficGen {
    /// Generates a batch of `n` packets. NF selection is stratified (not
    /// sampled) so small batches match the shares exactly.
    pub fn batch(&mut self, n: usize) -> Vec<pipeleon_sim::Packet> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut p = self.inner.next_packet();
            let u = (self.seq % 1000) as f64 / 1000.0;
            self.seq += 1;
            let sel = if u < self.shares[0] {
                0
            } else if u < self.shares[0] + self.shares[1] {
                1
            } else {
                2
            };
            p.set(self.selector, sel);
            out.push(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeleon_cost::CostParams;
    use pipeleon_sim::SmartNic;

    #[test]
    fn linear_tables_builds_all_kinds() {
        for kind in [MatchKind::Exact, MatchKind::Lpm, MatchKind::Ternary] {
            let (g, ids) = linear_tables(6, kind, 2, 3);
            g.validate().unwrap();
            assert_eq!(ids.len(), 6);
            assert_eq!(g.tables().count(), 6);
        }
    }

    #[test]
    fn acl_pipeline_drops_at_configured_rate() {
        let p = AclPipeline::build(2, 3);
        let mut nic = SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap();
        let mut gen = p.traffic(&[0.5, 0.0, 0.0], 1000, 7);
        let stats = nic.measure(gen.batch(10_000));
        let rate = stats.dropped as f64 / stats.packets as f64;
        assert!((rate - 0.5).abs() < 0.03, "drop rate = {rate}");
    }

    #[test]
    fn acl_pipeline_structure() {
        let p = AclPipeline::build(8, 4);
        assert_eq!(p.regular.len(), 8);
        assert_eq!(p.acls.len(), 4);
        assert_eq!(p.graph.tables().count(), 13); // 8 + 4 + routing
    }

    #[test]
    fn load_balancer_builds_and_runs() {
        let lb = LoadBalancer::build();
        lb.graph.validate().unwrap();
        assert_eq!(lb.graph.tables().count(), 12);
        let mut nic = SmartNic::new(lb.graph.clone(), CostParams::bluefield2()).unwrap();
        let mut gen = lb.traffic(&[0.2, 0.1], 500, 3);
        let stats = nic.measure(gen.batch(5000));
        let rate = stats.dropped as f64 / stats.packets as f64;
        // 1 - (1-0.2)(1-0.1) = 0.28.
        assert!((rate - 0.28).abs() < 0.03, "drop rate = {rate}");
    }

    #[test]
    fn dash_routing_structure_and_traffic() {
        let d = DashRouting::build();
        d.graph.validate().unwrap();
        // direction + 3 metadata + conntrack + 3 ACL + routing = 9 tables.
        assert_eq!(d.graph.tables().count(), 9);
        let mut nic = SmartNic::new(d.graph.clone(), CostParams::agilio_cx()).unwrap();
        let mut gen = d.traffic(&[0.3, 0.0, 0.0], 2000, 0.0, 11);
        let stats = nic.measure(gen.batch(5000));
        let rate = stats.dropped as f64 / stats.packets as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate = {rate}");
    }

    #[test]
    fn l2l3_acl_standalone() {
        let l = L2L3Acl::build();
        l.graph.validate().unwrap();
        assert_eq!(l.tables.len(), 4);
    }

    #[test]
    fn nf_composition_routes_by_selector() {
        let nf = NfComposition::build();
        nf.graph.validate().unwrap();
        let mut nic = SmartNic::new(nf.graph.clone(), CostParams::emulated_nic()).unwrap();
        let mut gen = nf.traffic(&[0.6, 0.3], 1000, 5);
        nic.set_instrumentation(true, 1);
        nic.measure(gen.batch(3000));
        let prof = nic.take_profile();
        let visits = prof.visit_probabilities(&nf.graph);
        let share = |nf_idx: usize| visits[nf.nf_entries[nf_idx].index()];
        assert!((share(0) - 0.6).abs() < 0.05, "nf1 share = {}", share(0));
        assert!((share(1) - 0.3).abs() < 0.05, "nf2 share = {}", share(1));
        assert!((share(2) - 0.1).abs() < 0.05, "nf3 share = {}", share(2));
    }

    #[test]
    fn skewed_pipeline_builds_and_runs() {
        let s = SkewedPipeline::build(3, 2);
        s.graph.validate().unwrap();
        // 3 ternary + 2 exact + class_map + routing.
        assert_eq!(s.graph.tables().count(), 7);
        let mut nic = SmartNic::new(s.graph.clone(), CostParams::bluefield2()).unwrap();
        let stats = nic.measure(s.traffic(1.2, 1000, 3).batch(4000));
        assert_eq!(stats.packets, 4000);
        assert_eq!(stats.dropped, 0, "nothing in this pipeline drops");
    }

    #[test]
    fn skewed_traffic_concentrates_and_flip_is_disjoint() {
        let s = SkewedPipeline::build(2, 1);
        let top_share = |mut g: FlowGen| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..4000 {
                *counts
                    .entry(g.next_packet().get(s.flow_fields[0]))
                    .or_insert(0u32) += 1;
            }
            *counts.values().max().unwrap() as f64 / 4000.0
        };
        assert!(top_share(s.traffic(1.3, 500, 7)) > 0.25, "skew too weak");
        assert!(
            top_share(s.traffic(0.0, 500, 7)) < 0.05,
            "uniform too peaky"
        );
        // The flipped generator shares no flow values with the original.
        let values = |mut g: FlowGen| {
            (0..2000)
                .map(|_| g.next_packet().get(s.flow_fields[0]))
                .collect::<std::collections::HashSet<_>>()
        };
        let a = values(s.traffic(1.3, 500, 7));
        let b = values(s.traffic_flipped(1.3, 500, 7));
        assert!(a.is_disjoint(&b), "flip did not move the flow universe");
    }

    #[test]
    fn nf_composition_has_nine_plus_pipelet_chains() {
        // Tables split across three chains; total tables = 6 + 6 + 4.
        let nf = NfComposition::build();
        let total: usize = nf.nf_tables.iter().map(Vec::len).sum();
        assert_eq!(total, 15);
        assert_eq!(nf.graph.tables().count(), 15);
    }
}
