//! Output checks computed apart from the program: the independent
//! global-traversal baseline, and traversals and scans written here.
//! None of them compares against a stored copy of earlier output.

use std::collections::{BTreeSet, HashSet, VecDeque};

use tpiin::detect::{baseline, DetectionResult, GroupKind, SuspiciousGroup};
use tpiin::fusion::{ArcColor, NodeColor, Tpiin};
use tpiin::graph::NodeId;
use tpiin::io::json::Json;

/// A group's identity: its trading arc and both trails.
pub type Key = ((NodeId, NodeId), Vec<NodeId>, Vec<NodeId>);

/// The same identity in node labels, comparable across networks whose
/// node ids differ (a served snapshot against an offline fuse).
pub type LabelKey = (Vec<String>, Vec<String>, Vec<String>);

pub fn key(g: &SuspiciousGroup) -> Key {
    (
        g.trading_arc,
        g.trail_with_trade.clone(),
        g.trail_plain.clone(),
    )
}

pub fn label_key(tpiin: &Tpiin, g: &SuspiciousGroup) -> LabelKey {
    let labels = |nodes: &[NodeId]| -> Vec<String> {
        nodes.iter().map(|&n| tpiin.label(n).to_string()).collect()
    };
    (
        labels(&[g.trading_arc.0, g.trading_arc.1]),
        labels(&g.trail_with_trade),
        labels(&g.trail_plain),
    )
}

/// The Rule 1/Rule 2 groups (as key sets) and the suspicious arcs must
/// equal those of the global-traversal baseline on the same network.
pub fn rules_match_baseline(tpiin: &Tpiin, rules: &DetectionResult) -> Result<(), String> {
    if rules.overflowed {
        return Err("rules detection overflowed its tree bound".into());
    }
    if rules.groups.len() != rules.group_count() {
        return Err(format!(
            "rules result holds {} groups but counts {}",
            rules.groups.len(),
            rules.group_count()
        ));
    }
    let base = baseline::detect_baseline(tpiin, 1_000_000);
    if base.overflowed {
        return Err("baseline overflowed its trail bound".into());
    }
    let mined: BTreeSet<Key> = rules.groups.iter().map(key).collect();
    if mined.len() != rules.groups.len() {
        return Err("rules result repeats a group".into());
    }
    let expected: BTreeSet<Key> = base.groups.iter().map(key).collect();
    if mined != expected {
        return Err(format!(
            "rules groups differ from the baseline: {} only mined, {} only in the baseline",
            mined.difference(&expected).count(),
            expected.difference(&mined).count()
        ));
    }
    if rules.suspicious_trading_arcs != base.suspicious_trading_arcs {
        return Err(format!(
            "suspicious arcs differ: {} mined, {} in the baseline",
            rules.suspicious_trading_arcs.len(),
            base.suspicious_trading_arcs.len()
        ));
    }
    Ok(())
}

/// Every circular group must be a real trading cycle, found by walking
/// the network's trading arcs, and reported once.
pub fn cycles_are_real(tpiin: &Tpiin, circular: &DetectionResult) -> Result<(), String> {
    if circular.overflowed {
        return Err("circular miner overflowed its cycle budget".into());
    }
    let trading: HashSet<(NodeId, NodeId)> = tpiin
        .graph
        .edges()
        .filter(|e| e.weight.color == ArcColor::Trading)
        .map(|e| (e.source, e.target))
        .collect();
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    for g in &circular.groups {
        let cycle = &g.trail_with_trade;
        if g.kind != GroupKind::Circle || cycle.len() < 2 {
            return Err(format!("circular group {cycle:?} is not a cycle"));
        }
        if cycle.iter().collect::<HashSet<_>>().len() != cycle.len() {
            return Err(format!("circular group {cycle:?} repeats a node"));
        }
        for i in 0..cycle.len() {
            let arc = (cycle[i], cycle[(i + 1) % cycle.len()]);
            if !trading.contains(&arc) {
                return Err(format!(
                    "circular group {cycle:?} uses a missing arc {arc:?}"
                ));
            }
        }
        let start = (0..cycle.len())
            .min_by_key(|&i| cycle[i])
            .expect("cycle is not empty");
        let canonical: Vec<NodeId> = cycle[start..]
            .iter()
            .chain(&cycle[..start])
            .copied()
            .collect();
        if !seen.insert(canonical) {
            return Err(format!("circular group {cycle:?} is reported twice"));
        }
    }
    Ok(())
}

/// The antecedent (influence) network must be acyclic, and no arc of
/// either color may enter a person node.
pub fn antecedent_network_is_sound(tpiin: &Tpiin) -> Result<(), String> {
    let n = tpiin.graph.node_count();
    let mut indegree = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in tpiin.graph.edges() {
        if tpiin.color(e.target) == NodeColor::Person {
            return Err(format!(
                "person node {} has an incoming arc",
                e.target.index()
            ));
        }
        if e.weight.color == ArcColor::Influence {
            out[e.source.index()].push(e.target.index());
            indegree[e.target.index()] += 1;
        }
    }
    let mut ready: VecDeque<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut ordered = 0;
    while let Some(v) = ready.pop_front() {
        ordered += 1;
        for &w in &out[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                ready.push_back(w);
            }
        }
    }
    if ordered != n {
        return Err(format!(
            "antecedent network has a cycle through {} nodes",
            n - ordered
        ));
    }
    Ok(())
}

/// Field-by-field equality of two networks: nodes, arcs in edge-id
/// order with color and weight, entity maps, intra-syndicate trades and
/// per-arc provenance.
pub fn same_tpiin(a: &Tpiin, b: &Tpiin) -> Result<(), String> {
    if a.node_count() != b.node_count() || a.graph.edge_count() != b.graph.edge_count() {
        return Err(format!(
            "size differs: {} nodes / {} arcs vs {} / {}",
            a.node_count(),
            a.graph.edge_count(),
            b.node_count(),
            b.graph.edge_count()
        ));
    }
    if let Some(((id, x), (_, y))) = a
        .graph
        .nodes()
        .zip(b.graph.nodes())
        .find(|(x, y)| x.1 != y.1)
    {
        return Err(format!("node {} differs: {x:?} vs {y:?}", id.index()));
    }
    let arcs = |t: &Tpiin| -> Vec<(usize, usize, ArcColor, u64)> {
        t.graph
            .edges()
            .map(|e| {
                (
                    e.source.index(),
                    e.target.index(),
                    e.weight.color,
                    e.weight.weight.to_bits(),
                )
            })
            .collect()
    };
    if arcs(a) != arcs(b) {
        return Err("arc lists differ".into());
    }
    if a.person_node != b.person_node || a.company_node != b.company_node {
        return Err("entity-to-node maps differ".into());
    }
    if a.intra_syndicate_trades != b.intra_syndicate_trades {
        return Err("intra-syndicate trades differ".into());
    }
    if a.arc_sources != b.arc_sources {
        return Err("per-arc source records differ".into());
    }
    if a.influence_arc_count != b.influence_arc_count || a.trading_arc_count != b.trading_arc_count
    {
        return Err("arc counters differ".into());
    }
    Ok(())
}

/// A served group's identity, read from its JSON (`trading_arc`,
/// `trail_with_trade` and `trail_plain` as label arrays).
pub fn label_key_from_json(group: &Json) -> Option<LabelKey> {
    let labels = |field: &str| -> Option<Vec<String>> {
        match group.get(field)? {
            Json::Array(items) => items
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect(),
            _ => None,
        }
    };
    Some((
        labels("trading_arc")?,
        labels("trail_with_trade")?,
        labels("trail_plain")?,
    ))
}

/// The `groups` array of a response body, as label keys.
pub fn served_groups(body: &Json) -> Result<Vec<LabelKey>, String> {
    match body.get("groups") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|g| label_key_from_json(g).ok_or_else(|| "malformed group".to_string()))
            .collect(),
        _ => Err("response has no groups array".into()),
    }
}
