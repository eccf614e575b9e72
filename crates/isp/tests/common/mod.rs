//! Helpers shared by the FJ01 suites: projections of a telemetry bundle
//! onto what must be bit-identical across shard counts, chunk sizes,
//! feature toggles, and kill→resume, and the registry-split check.

use fj_telemetry::{render, Telemetry};

/// The deterministic registry's Prometheus rendering, whole. Series fed
/// by a wall clock, the recovery schedule, or an optional feature live
/// on `diagnostics()` and never reach it.
pub fn deterministic_prometheus(t: &Telemetry) -> String {
    render::to_prometheus_text(&t.registry().snapshot())
}

/// The causal span stream projected onto its deterministic content. Wall
/// stamps are the sanctioned nondeterminism (they measure real elapsed
/// time); everything else — sequential ids, parents, names, lanes, sim
/// stamps, fields, drop counts — must be bit-identical. Fields are the
/// rendered list (`router` first), so where a span keeps its router
/// label does not matter, only what every renderer writes.
pub fn stable_spans(t: &Telemetry) -> Vec<String> {
    let mut out: Vec<String> = t
        .tracer()
        .spans()
        .iter()
        .map(|s| {
            format!(
                "{} parent={} name={} lane={} sim={}..{} fields={:?}",
                s.id,
                s.parent,
                s.name,
                s.lane,
                s.sim_start.as_secs(),
                s.sim_end.as_secs(),
                s.rendered_fields().collect::<Vec<_>>()
            )
        })
        .collect();
    out.push(format!("dropped={}", t.tracer().dropped()));
    out
}

/// Asserts each `diagnostic` series is registered on `diagnostics()`
/// and absent from `registry()`, and that no `(name, labels)` key sits on
/// both registries, so the merged exposition renders every series once.
pub fn assert_diagnostic_split(t: &Telemetry, diagnostic: &[&str]) {
    let det = t.registry().snapshot();
    let diag = t.diagnostics().snapshot();
    for name in diagnostic {
        assert!(
            diag.iter().any(|m| m.name == *name),
            "{name} not on diagnostics()"
        );
        assert!(det.iter().all(|m| m.name != *name), "{name} on registry()");
    }
    for m in &diag {
        let both = det
            .iter()
            .any(|d| (&d.name, &d.labels) == (&m.name, &m.labels));
        assert!(!both, "{} {:?} is on both registries", m.name, m.labels);
    }
}
