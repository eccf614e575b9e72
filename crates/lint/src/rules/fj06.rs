//! FJ06 — lock discipline: no lock guard held across a call that can
//! re-enter the telemetry registry.
//!
//! The telemetry `Registry` and `EventLog` serialize on their own
//! mutexes. A component that calls `registry.counter(...)` or
//! `telemetry.event(...)` while holding one of its *own* locks creates a
//! lock-order edge that inverts the moment telemetry (a renderer, an
//! exporter thread) calls back into that component — the classic
//! deadlock-in-waiting that only fires under production concurrency.
//! The concrete in-tree hazard: the Autopower server once emitted a
//! Warn event while holding its unit-store mutex.
//!
//! Detection is lexical but scope-aware: a `let g = ....lock();` (or
//! `.read()` / `.write()`) binding is traced to the end of its enclosing
//! block — or an explicit `drop(g)` — and flagged if a registry /
//! event-log call appears while the guard lives.

use super::{find_all, FileCtx};
use crate::findings::Finding;
use crate::workspace::FileClass;

/// Guard-producing call suffixes (argument-free, so `reader.read(&mut
/// buf)` and friends cannot match).
const GUARD_NEEDLES: &[&str] = &[".lock()", ".read()", ".write()"];

/// Calls that (can) take a telemetry-internal mutex.
const REENTRANT_NEEDLES: &[&str] = &[
    ".counter(",
    ".gauge(",
    ".histogram(",
    ".counter_total(",
    ".snapshot(",
    ".event(",
];

/// Scans for guard bindings held across registry/event calls.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !matches!(ctx.class, FileClass::Library | FileClass::Bin) {
        return;
    }
    let code = ctx.code;
    for needle in GUARD_NEEDLES {
        for pos in find_all(code, needle) {
            if ctx.in_test(pos) {
                continue;
            }
            // The guard must be *bound*: the statement must start with
            // `let`, and the guard expression must end the statement.
            let Some(semi) = code[pos + needle.len()..]
                .find(|c: char| !c.is_whitespace())
                .map(|off| pos + needle.len() + off)
                .filter(|&i| code.as_bytes()[i] == b';')
            else {
                continue;
            };
            let Some((let_pos, ident)) = binding_ident(code, pos) else {
                continue;
            };
            let scope_end = enclosing_block_end(code, semi + 1);
            let live = match find_all(&code[semi..scope_end], &format!("drop({ident})")).next() {
                Some(off) => semi + off,
                None => scope_end,
            };
            let held = &code[semi..live];
            if let Some(re) = REENTRANT_NEEDLES.iter().find(|n| held.contains(*n)) {
                let what = re.trim_matches(|c| c == '.' || c == '(');
                out.push(ctx.finding(
                    "FJ06",
                    let_pos,
                    format!(
                        "lock guard `{ident}` is held across `.{what}(...)`, which can \
                         re-enter the telemetry registry; drop the guard first (collect \
                         the data, unlock, then record)"
                    ),
                ));
            }
        }
    }
}

/// If the statement containing `pos` is `let [mut] <ident> = ...`,
/// returns the `let` offset and the identifier.
fn binding_ident(code: &str, pos: usize) -> Option<(usize, String)> {
    let bytes = code.as_bytes();
    // Walk back to the statement start.
    let mut i = pos;
    while i > 0 {
        match bytes[i - 1] {
            b';' | b'{' | b'}' => break,
            _ => i -= 1,
        }
    }
    let stmt = code[i..pos].trim_start();
    let let_pos = i + (code[i..pos].len() - code[i..pos].trim_start().len());
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let after = rest[ident.len()..].trim_start();
    // Reject destructuring / typed patterns beyond a plain `name =` or
    // `name: Ty =` binding.
    (!ident.is_empty() && (after.starts_with('=') || after.starts_with(':')))
        .then_some((let_pos, ident))
}

/// Byte offset just past the `}` closing the block that contains `from`.
fn enclosing_block_end(code: &str, from: usize) -> usize {
    let mut depth = 0i32;
    for (i, b) in code.bytes().enumerate().skip(from) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    code.len()
}
