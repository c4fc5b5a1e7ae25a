//! The interprocedural passes: budget-flow (F001), determinism
//! reachability (F002), panic reachability (F003), and the workspace
//! allow audit (L003).
//!
//! All three passes run over the call graph from [`crate::graph`]; see
//! DESIGN.md §13 for the invariant catalog and the soundness trade-offs
//! of the underlying name resolution.
//!
//! - **F001** — every function from which a `prc-dp` sampling primitive
//!   is reachable without crossing a *reservation holder* (a pipeline
//!   function that visibly binds or acquires a [`Reservation`]) is
//!   budget-unprotected. Library entry points of unprotected chains are
//!   findings, as is any function that acquires a reservation and lets
//!   it go out of scope without `commit`/`rollback`/`abort`/`settle`.
//! - **F002** — the deterministic scope (D001/D002) propagates through
//!   calls: a helper defined outside the deterministic directories but
//!   reachable from them must not touch unordered maps or wall clocks.
//! - **F003** — a *sanctioned* panic site (a P-rule finding suppressed
//!   by a reasoned allow) taints its function; taint propagates to
//!   callers until absorbed by a `# Panics` doc section or an
//!   `allow(F003)`. Tainted unrestricted-`pub` library functions without
//!   either are findings.
//! - **L003** — a reasoned `allow(F001|F002|F003)` that suppresses
//!   nothing is stale and must be removed.
//!
//! [`Reservation`]: https://docs.rs/..

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::{CallGraph, FileUnit, FnId};
use crate::items::{extract, FnItem};
use crate::rules::{scope, suppress_line, FileAnalysis, Finding};

/// Identifier tokens whose presence marks a function as visibly holding
/// or routing a budget reservation.
const RESERVATION_TOKENS: [&str; 2] = ["Reservation", "reservation"];

/// Identifier tokens that resolve a held reservation.
const RESOLUTION_TOKENS: [&str; 4] = ["commit", "rollback", "abort", "settle"];

/// Runs every interprocedural pass over the analyzed files, marking
/// allow usage as it goes, and returns the combined findings.
pub fn interprocedural(analyses: &mut [FileAnalysis]) -> Vec<Finding> {
    let units: Vec<FileUnit> = analyses
        .iter()
        .map(|a| FileUnit {
            path: a.path.clone(),
            items: if scope::is_test_path(&a.path) {
                Vec::new()
            } else {
                extract(&a.scanned)
            },
        })
        .collect();
    let graph = CallGraph::build(&units);

    let mut findings = Vec::new();
    findings.extend(budget_flow(analyses, &units, &graph));
    findings.extend(determinism_reachability(analyses, &units, &graph));
    findings.extend(panic_reachability(analyses, &units, &graph));
    findings.extend(stale_flow_allows(analyses));
    findings
}

/// F001: budget-flow.
fn budget_flow(
    analyses: &mut [FileAnalysis],
    units: &[FileUnit],
    graph: &CallGraph,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Sampling primitives: prc-dp functions whose body textually draws.
    let mut primitives: BTreeSet<FnId> = BTreeSet::new();
    for (fi, unit) in units.iter().enumerate() {
        if !scope::is_dp_crate(&unit.path) {
            continue;
        }
        for (ii, item) in unit.items.iter().enumerate() {
            if item.in_test {
                continue;
            }
            let span = body_lines(item);
            let draws = span.clone().any(|idx| {
                analyses[fi]
                    .scanned
                    .code
                    .get(idx)
                    .is_some_and(|l| l.contains(".sample("))
            });
            if draws {
                primitives.insert((fi, ii));
            }
        }
    }

    // Reservation holders: pipeline functions that visibly bind or
    // acquire a reservation. They dominate everything they call.
    let is_holder = |id: FnId| -> bool {
        let (fi, ii) = id;
        let unit = &units[fi];
        if !scope::is_pipeline_path(&unit.path) {
            return false;
        }
        let item = &unit.items[ii];
        RESERVATION_TOKENS.iter().any(|t| item.idents.contains(*t))
            || item.calls.iter().any(|c| c.name == "reserve")
    };

    // An allow(F001) on a function sanctions the whole chain beneath
    // it, exactly like a holder would — the escape carries the budget
    // argument for everything it dominates.
    let mut sanctioners: BTreeSet<FnId> = BTreeSet::new();
    for (fi, unit) in units.iter().enumerate() {
        for (ii, item) in unit.items.iter().enumerate() {
            if !item.in_test && has_def_allow(&analyses[fi], item, "F001") {
                sanctioners.insert((fi, ii));
            }
        }
    }

    // Unprotected set: reverse closure of the primitives that never
    // crosses a blocker. `via` records the callee that admitted each
    // member, for witness chains.
    let closure = |blocks: &dyn Fn(FnId) -> bool| -> (BTreeSet<FnId>, BTreeMap<FnId, FnId>) {
        let mut unprotected: BTreeSet<FnId> = BTreeSet::new();
        let mut via: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: VecDeque<FnId> =
            primitives.iter().copied().filter(|&p| !blocks(p)).collect();
        unprotected.extend(queue.iter().copied());
        while let Some(f) = queue.pop_front() {
            if let Some(callers) = graph.callers.get(&f) {
                for &c in callers {
                    if !blocks(c) && unprotected.insert(c) {
                        via.insert(c, f);
                        queue.push_back(c);
                    }
                }
            }
        }
        (unprotected, via)
    };

    // The allow-free closure decides which allow(F001) directives earn
    // their keep; the sanctioned closure decides the findings.
    let (unprotected_pre, _) = closure(&is_holder);
    for &id in &sanctioners {
        if unprotected_pre.contains(&id) {
            let (fi, ii) = id;
            let item = &units[fi].items[ii];
            mark_def_allow(&mut analyses[fi], item, "F001");
        }
    }
    let (unprotected, via) = closure(&|id: FnId| is_holder(id) || sanctioners.contains(&id));

    // Library entry points of unprotected chains: functions in the set
    // whose callers (if any) are all outside library code, defined in a
    // library file outside prc-dp.
    for &id in &unprotected {
        let (fi, ii) = id;
        let unit = &units[fi];
        let item = &unit.items[ii];
        if scope::is_dp_crate(&unit.path) || !scope::is_library_path(&unit.path) {
            continue;
        }
        let entry = graph.callers.get(&id).is_none_or(|callers| {
            callers
                .iter()
                .all(|&(cf, _)| !scope::is_library_path(&units[cf].path))
        });
        if !entry {
            continue;
        }
        let chain = witness_chain(units, &via, id, &primitives);
        findings.push(finding_at(
            &analyses[fi],
            "F001",
            item.line,
            format!(
                "`{}` reaches a prc-dp sampling primitive with no reservation \
                 holder on the path ({chain}); route it through the pipeline \
                 stages or carry allow(F001) with the budget argument",
                display_name(item)
            ),
        ));
    }

    // Leaked reservations: a function that acquires a hold but neither
    // resolves it nor hands it on (no reservation token in its
    // signature/body reaches a caller).
    for (fi, unit) in units.iter().enumerate() {
        if !scope::is_library_path(&unit.path) {
            continue;
        }
        for item in &unit.items {
            if item.in_test {
                continue;
            }
            let acquires = item
                .calls
                .iter()
                .any(|c| c.name == "reserve" || c.name == "reserve_effective");
            if !acquires {
                continue;
            }
            let resolves = RESOLUTION_TOKENS.iter().any(|t| item.idents.contains(*t));
            let hands_on = RESERVATION_TOKENS.iter().any(|t| item.idents.contains(*t));
            if resolves || hands_on {
                continue;
            }
            if mark_def_allow(&mut analyses[fi], item, "F001") {
                continue;
            }
            findings.push(finding_at(
                &analyses[fi],
                "F001",
                item.line,
                format!(
                    "`{}` acquires a budget reservation but neither resolves it \
                     (commit/rollback/abort/settle) nor returns it to a caller — \
                     the hold leaks when it goes out of scope",
                    display_name(item)
                ),
            ));
        }
    }

    findings
}

/// F002: determinism reachability.
fn determinism_reachability(
    analyses: &mut [FileAnalysis],
    units: &[FileUnit],
    graph: &CallGraph,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Forward closure from every function defined in the deterministic
    // directories; `pred` records each function's discoverer.
    let mut reached: BTreeSet<FnId> = BTreeSet::new();
    let mut pred: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (fi, unit) in units.iter().enumerate() {
        if !scope::is_deterministic_path(&unit.path) {
            continue;
        }
        for (ii, item) in unit.items.iter().enumerate() {
            if !item.in_test {
                reached.insert((fi, ii));
                queue.push_back((fi, ii));
            }
        }
    }
    while let Some(f) = queue.pop_front() {
        if let Some(callees) = graph.callees.get(&f) {
            for &g in callees {
                if reached.insert(g) {
                    pred.insert(g, f);
                    queue.push_back(g);
                }
            }
        }
    }

    const D_TOKENS: [(&str, &str); 4] = [
        ("HashMap", "iteration order is nondeterministic"),
        ("HashSet", "iteration order is nondeterministic"),
        ("Instant::now", "reads the wall clock"),
        ("SystemTime", "reads the wall clock"),
    ];

    for &id in &reached {
        let (fi, ii) = id;
        let unit = &units[fi];
        if scope::is_deterministic_path(&unit.path)
            || scope::is_test_path(&unit.path)
            || !scope::is_library_path(&unit.path)
        {
            continue;
        }
        let item = &unit.items[ii];
        let chain = root_chain(units, &pred, id);
        for idx in body_lines(item) {
            let Some(code) = analyses[fi].scanned.code.get(idx) else {
                continue;
            };
            if analyses[fi]
                .scanned
                .in_test
                .get(idx)
                .copied()
                .unwrap_or(false)
            {
                continue;
            }
            for (token, why) in D_TOKENS {
                if !crate::rules::contains_token(code, token) {
                    continue;
                }
                let line = idx + 1;
                if suppress_line(&mut analyses[fi].allows, line, "F002") {
                    continue;
                }
                findings.push(finding_at(
                    &analyses[fi],
                    "F002",
                    line,
                    format!(
                        "`{token}` {why}, and `{}` is reachable from the \
                         deterministic answer path ({chain}); use ordered \
                         containers / pass time in, or carry allow(F002)",
                        display_name(item)
                    ),
                ));
            }
        }
    }

    findings
}

/// F003: panic reachability.
fn panic_reachability(
    analyses: &mut [FileAnalysis],
    units: &[FileUnit],
    graph: &CallGraph,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Sources: functions containing a sanctioned panic site.
    let mut sources: BTreeSet<FnId> = BTreeSet::new();
    for (fi, unit) in units.iter().enumerate() {
        for line in analyses[fi].sanctioned.clone() {
            if let Some(ii) = enclosing_fn(&unit.items, line) {
                if !unit.items[ii].in_test {
                    sources.insert((fi, ii));
                }
            }
        }
    }

    let mut documented: BTreeSet<FnId> = BTreeSet::new();
    for (fi, unit) in units.iter().enumerate() {
        for (ii, item) in unit.items.iter().enumerate() {
            if has_panics_doc(&analyses[fi], item) {
                documented.insert((fi, ii));
            }
        }
    }

    // First taint computation ignores allows, to decide which
    // allow(F003) directives actually earn their keep.
    let taint = |stops_at: &dyn Fn(FnId) -> bool| -> (BTreeSet<FnId>, BTreeMap<FnId, FnId>) {
        let mut tainted: BTreeSet<FnId> = BTreeSet::new();
        let mut via: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = sources.iter().copied().collect();
        while let Some(f) = queue.pop_front() {
            if !tainted.insert(f) || stops_at(f) {
                continue;
            }
            if let Some(callers) = graph.callers.get(&f) {
                for &c in callers {
                    if !tainted.contains(&c) {
                        via.entry(c).or_insert(f);
                        queue.push_back(c);
                    }
                }
            }
        }
        (tainted, via)
    };

    let (tainted_pre, _) = taint(&|id| documented.contains(&id));
    let mut allowed: BTreeSet<FnId> = BTreeSet::new();
    for &id in &tainted_pre {
        let (fi, ii) = id;
        // Splitting the borrow: mark_def_allow needs &mut analyses[fi].
        let item_line_ok = {
            let item = &units[fi].items[ii];
            mark_def_allow(&mut analyses[fi], item, "F003")
        };
        if item_line_ok {
            allowed.insert(id);
        }
    }

    let stops = |id: FnId| -> bool { documented.contains(&id) || allowed.contains(&id) };
    let (tainted, via) = taint(&stops);

    for &id in &tainted {
        let (fi, ii) = id;
        let unit = &units[fi];
        let item = &unit.items[ii];
        if !item.is_pub || item.in_test || stops(id) || !scope::is_library_path(&unit.path) {
            continue;
        }
        let chain = witness_chain(units, &via, id, &sources);
        findings.push(finding_at(
            &analyses[fi],
            "F003",
            item.line,
            format!(
                "public `{}` can reach a sanctioned panic site ({chain}); \
                 document the contract with a `# Panics` section or carry \
                 allow(F003)",
                display_name(item)
            ),
        ));
    }

    findings
}

/// L003: reasoned flow-rule allows that suppressed nothing.
fn stale_flow_allows(analyses: &mut [FileAnalysis]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for analysis in analyses.iter() {
        for allow in &analysis.allows {
            let flow_rule = matches!(allow.rule.as_str(), "F001" | "F002" | "F003");
            if !flow_rule || allow.in_test || allow.used || !allow.has_reason {
                continue;
            }
            findings.push(finding_at(
                analysis,
                "L003",
                allow.line,
                format!(
                    "allow({}) suppresses no interprocedural finding — the \
                     invariant now holds here; remove the stale escape",
                    allow.rule
                ),
            ));
        }
    }
    findings
}

/// 0-based line indices of an item's signature-plus-body span.
fn body_lines(item: &FnItem) -> std::ops::Range<usize> {
    match item.body {
        Some((_, end)) => item.line - 1..end,
        None => item.line - 1..item.line,
    }
}

/// The innermost function whose span contains 1-based `line`.
fn enclosing_fn(items: &[FnItem], line: usize) -> Option<usize> {
    items
        .iter()
        .enumerate()
        .filter(|(_, item)| {
            let end = item.body.map_or(item.line, |(_, e)| e);
            item.line <= line && line <= end
        })
        .max_by_key(|(_, item)| item.line)
        .map(|(ii, _)| ii)
}

/// 0-based indices of the contiguous header block (doc comments,
/// attributes, allow directives) directly above an item's `fn` line.
fn header_block(analysis: &FileAnalysis, item: &FnItem) -> std::ops::Range<usize> {
    let fn_idx = item.line - 1;
    let mut start = fn_idx;
    while start > 0 {
        let prev = start - 1;
        let code_blank = analysis
            .scanned
            .code
            .get(prev)
            .is_none_or(|l| l.trim().is_empty());
        let is_attr = analysis
            .scanned
            .code
            .get(prev)
            .is_some_and(|l| l.trim_start().starts_with('#'));
        // A comment-only line — including a bare `///` paragraph break,
        // whose captured comment text is empty.
        let raw_nonblank = analysis
            .scanned
            .raw
            .get(prev)
            .is_some_and(|l| !l.trim().is_empty());
        if is_attr || (code_blank && raw_nonblank) {
            start = prev;
        } else {
            break;
        }
    }
    start..fn_idx
}

/// Whether the item's doc block carries a `# Panics` section.
fn has_panics_doc(analysis: &FileAnalysis, item: &FnItem) -> bool {
    header_block(analysis, item).any(|idx| {
        analysis
            .scanned
            .comments
            .get(idx)
            .is_some_and(|c| c.contains("# Panics"))
    })
}

/// Whether a reasoned `allow(rule)` directive sits on the item's `fn`
/// line or in its header block, without marking it used.
fn has_def_allow(analysis: &FileAnalysis, item: &FnItem, rule: &str) -> bool {
    let header = header_block(analysis, item);
    analysis.allows.iter().any(|allow| {
        allow.rule == rule
            && allow.has_reason
            && (allow.line == item.line || (allow.line > header.start && allow.line <= header.end))
    })
}

/// Finds an `allow(rule)` directive on the item's `fn` line or in its
/// header block; marks it used and reports whether one was found.
fn mark_def_allow(analysis: &mut FileAnalysis, item: &FnItem, rule: &str) -> bool {
    let header = header_block(analysis, item);
    let mut hit = false;
    for allow in analysis.allows.iter_mut() {
        if allow.rule != rule || !allow.has_reason {
            continue;
        }
        let idx = allow.line - 1;
        if idx == item.line - 1 || (idx >= header.start && idx < header.end) {
            allow.used = true;
            hit = true;
        }
    }
    hit
}

/// `Type::name` or `name` for messages.
fn display_name(item: &FnItem) -> String {
    match &item.impl_type {
        Some(ty) => format!("{ty}::{}", item.name),
        None => item.name.clone(),
    }
}

/// Walks `via` pointers from `id` down to a terminal set, rendering
/// `a -> b -> c` for witness messages.
fn witness_chain(
    units: &[FileUnit],
    via: &BTreeMap<FnId, FnId>,
    id: FnId,
    terminals: &BTreeSet<FnId>,
) -> String {
    let mut names = vec![display_name(&units[id.0].items[id.1])];
    let mut cur = id;
    let mut hops = 0;
    while !terminals.contains(&cur) && hops < 12 {
        match via.get(&cur) {
            Some(&next) => {
                names.push(display_name(&units[next.0].items[next.1]));
                cur = next;
                hops += 1;
            }
            None => break,
        }
    }
    names.join(" -> ")
}

/// Walks `pred` pointers from `id` back up to a root, rendering the
/// call chain root-first.
fn root_chain(units: &[FileUnit], pred: &BTreeMap<FnId, FnId>, id: FnId) -> String {
    let mut names = vec![display_name(&units[id.0].items[id.1])];
    let mut cur = id;
    let mut hops = 0;
    while hops < 12 {
        match pred.get(&cur) {
            Some(&prev) => {
                names.push(display_name(&units[prev.0].items[prev.1]));
                cur = prev;
                hops += 1;
            }
            None => break,
        }
    }
    names.reverse();
    names.join(" -> ")
}

fn finding_at(
    analysis: &FileAnalysis,
    rule: &'static str,
    line: usize,
    message: String,
) -> Finding {
    Finding {
        rule,
        path: analysis.path.clone(),
        line,
        snippet: crate::rules::snippet_at(&analysis.scanned, line.saturating_sub(1)),
        message,
    }
}
