//! The determinism rule catalog (D1–D5, F1–F4) and the per-file rule
//! engine.
//!
//! Scope model: each scanned file carries a [`FileCtx`] naming its crate
//! and the subset of rules that apply there. Sim-visible crates (whose
//! state can reach event ordering or reported numbers) get the full set;
//! the wall-clock bench harness is exempt from D2; the lint itself is
//! only held to D2/D5. Test code — `#[test]` functions, `#[cfg(test)]`
//! modules, and everything behind a test attribute — is exempt from all
//! rules: nondeterminism there cannot reach sim-visible state, and test
//! assertions are free to unwrap.
//!
//! The D-family rules are token-pattern scans. The F-family rules are
//! *structural*: they run over the item tree built by [`crate::scope`]
//! (crate → mod → impl → fn, with spans), so a rule can ask "which fn
//! owns this mutation?" and check it against the checked-in
//! [`crate::manifest`]. Allow annotations gain item scope the same way
//! (F4): a `// lint:allow(rule, reason)` directly above an item covers
//! the item's whole line span instead of just the next line.

use crate::lexer::{int_value, lex, Lexed, Tok, TokKind};
use crate::manifest::{Manifest, MANIFEST_FILE};
use crate::scope::{loop_depths, parse_scopes, ScopeKind, ScopeTree};
use std::collections::BTreeMap;
use std::fmt;

/// One finding, pointing at a file and a line span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Catalog code, e.g. `D1`.
    pub code: &'static str,
    /// Rule id, e.g. `hash-order`.
    pub id: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based first line.
    pub line: u32,
    /// 1-based last line (equals `line` for point findings; spans the
    /// whole fn for structural findings like F2).
    pub end_line: u32,
    /// Human explanation.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.path, self.line, self.code, self.id, self.msg
        )
    }
}

/// Which rules apply to a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// D1: no `HashMap`/`HashSet`.
    pub d1: bool,
    /// D2: no `Instant`/`SystemTime`.
    pub d2: bool,
    /// D3: `SimRng::split` must use `simcore::streams` constants.
    pub d3: bool,
    /// D4: no `Mutex`/`RwLock`/`Condvar`/`thread::spawn`.
    pub d4: bool,
    /// D5: count `panic!`/`.unwrap()` against the budget baseline.
    pub d5: bool,
    /// F1: `WorldIndex` mutations only inside manifest funnel fns.
    pub f1: bool,
    /// F2: `GpuDevice` rate-state mutators must mark dirty domains.
    pub f2: bool,
    /// F3: stream hygiene — no splits in loops / struct fields / call
    /// arguments.
    pub f3: bool,
}

impl RuleSet {
    /// Everything a sim-visible event-handler crate gets (F1/F2 are
    /// crate-specific and opt in separately).
    pub fn sim_visible_full() -> Self {
        RuleSet {
            d1: true,
            d2: true,
            d3: true,
            d4: true,
            d5: true,
            f1: false,
            f2: false,
            f3: true,
        }
    }
}

/// Per-file lint context.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Cargo package name, e.g. `parfait-faas`.
    pub crate_name: String,
    /// Workspace-relative path used in diagnostics.
    pub path: String,
    /// Applicable rules.
    pub rules: RuleSet,
    /// True for `simcore/src/streams.rs` itself (exempt from the
    /// shadowing check — it *defines* the registry names).
    pub is_registry: bool,
}

/// The parsed `simcore::streams` registry: constant name → id value.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Stream-constant names and values, in declaration order.
    pub entries: Vec<(String, u64)>,
}

impl Registry {
    /// Is `name` a registered stream constant?
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }
}

/// Parse the registry source: every `pub const NAME: u64 = <int>;` is a
/// stream id. Duplicate values and non-literal initializers are
/// diagnosed (rule `stream-registry`).
pub fn parse_registry(path: &str, src: &str) -> (Registry, Vec<Diagnostic>) {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let mask = test_mask(toks);
    let mut reg = Registry::default();
    let mut diags = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !mask[i]
            && toks[i].is_ident("const")
            && i + 4 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("u64")
            && toks[i + 4].is_punct('=')
        {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            let ok =
                i + 6 < toks.len() && toks[i + 5].kind == TokKind::Int && toks[i + 6].is_punct(';');
            if !ok {
                diags.push(Diagnostic {
                    code: "R1",
                    id: "stream-registry",
                    path: path.to_string(),
                    line,
                    end_line: line,
                    msg: format!(
                        "stream constant `{name}` must be initialized with a plain \
                         integer literal so the lint (and reviewers) can check ids"
                    ),
                });
                i += 1;
                continue;
            }
            let value = int_value(&toks[i + 5].text).unwrap_or(u64::MAX);
            if let Some((prev, _)) = reg.entries.iter().find(|(_, v)| *v == value) {
                diags.push(Diagnostic {
                    code: "R1",
                    id: "stream-registry",
                    path: path.to_string(),
                    line,
                    end_line: line,
                    msg: format!(
                        "duplicate stream id {value}: `{name}` collides with `{prev}` \
                         (correlated RNG streams break split independence)"
                    ),
                });
            }
            reg.entries.push((name, value));
            i += 7;
            continue;
        }
        i += 1;
    }
    (reg, diags)
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Rule violations (already filtered through allow annotations).
    pub diagnostics: Vec<Diagnostic>,
    /// Non-test `panic!` sites (D5 numerator).
    pub panics: u64,
    /// Non-test `.unwrap()` sites (D5 numerator).
    pub unwraps: u64,
    /// Qualified names of every fn defined in the file (`Type::method`
    /// or free-fn name) — the workspace pass resolves manifest entries
    /// against these (rule M1).
    pub fns: Vec<String>,
}

/// Per-rule elapsed-nanos accumulator. The lint crate itself is banned
/// from wall clocks (its own D2 profile), so the clock is injected by
/// the caller — `repro lint` passes an `Instant`-based closure; the CLI
/// and tests run with timing disabled at zero cost.
pub struct RuleTimer<'a> {
    clock: Option<&'a dyn Fn() -> u64>,
    /// Accumulated nanos per pass key (`lex`, `scope`, `D1`..`F3`).
    pub nanos: BTreeMap<&'static str, u64>,
}

impl<'a> RuleTimer<'a> {
    /// A timer that measures nothing.
    pub fn disabled() -> Self {
        RuleTimer {
            clock: None,
            nanos: BTreeMap::new(),
        }
    }

    /// A timer reading the caller's monotonic nano clock.
    pub fn with_clock(clock: &'a dyn Fn() -> u64) -> Self {
        RuleTimer {
            clock: Some(clock),
            nanos: BTreeMap::new(),
        }
    }

    fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(c) = self.clock else { return f() };
        let t0 = c();
        let r = f();
        let dt = c().saturating_sub(t0);
        *self.nanos.entry(key).or_insert(0) += dt;
        r
    }
}

/// Mark every token that is test-only: an attribute containing the ident
/// `test` (and not `not`, so `cfg(not(test))` stays production code)
/// plus the item it decorates, through the item's closing brace (or
/// trailing semicolon). Covers `#[test]`, `#[cfg(test)] mod ... { }`,
/// and attribute stacks like `#[test] #[should_panic]`.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        if j < n && toks[j].is_punct('!') {
            j += 1;
        }
        if j >= n || !toks[j].is_punct('[') {
            i += 1;
            continue;
        }
        let mut depth = 1usize;
        let mut k = j + 1;
        let mut has_test = false;
        let mut has_not = false;
        while k < n && depth > 0 {
            if toks[k].is_punct('[') {
                depth += 1;
            } else if toks[k].is_punct(']') {
                depth -= 1;
            } else if toks[k].is_ident("test") {
                has_test = true;
            } else if toks[k].is_ident("not") {
                has_not = true;
            }
            k += 1;
        }
        if !has_test || has_not {
            i = k;
            continue;
        }
        // Skip any further stacked attributes.
        let mut m = k;
        while m < n && toks[m].is_punct('#') {
            let mut mm = m + 1;
            if mm < n && toks[mm].is_punct('[') {
                let mut d = 1usize;
                mm += 1;
                while mm < n && d > 0 {
                    if toks[mm].is_punct('[') {
                        d += 1;
                    } else if toks[mm].is_punct(']') {
                        d -= 1;
                    }
                    mm += 1;
                }
                m = mm;
            } else {
                break;
            }
        }
        // The decorated item runs to its body's closing brace, or to the
        // first `;` for brace-less items.
        let mut p = m;
        while p < n && !toks[p].is_punct('{') && !toks[p].is_punct(';') {
            p += 1;
        }
        let end = if p < n && toks[p].is_punct('{') {
            let mut d = 1usize;
            let mut q = p + 1;
            while q < n && d > 0 {
                if toks[q].is_punct('{') {
                    d += 1;
                } else if toks[q].is_punct('}') {
                    d -= 1;
                }
                q += 1;
            }
            q
        } else {
            (p + 1).min(n)
        };
        for slot in mask.iter_mut().take(end).skip(attr_start) {
            *slot = true;
        }
        i = end;
    }
    mask
}

/// Is the `.split(` at token index `i` (the `split` ident) an RNG split?
/// Receiver heuristic: the token before the dot is an identifier whose
/// name contains `rng` (any case), or a `)` within a short window of a
/// `SimRng` path (constructor chains like `SimRng::new(s).split(..)`).
/// `str::split` receivers (`label.split('.')`) fall outside both.
fn is_rng_split(toks: &[Tok], i: usize) -> bool {
    if i < 2 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let recv = &toks[i - 2];
    if recv.kind == TokKind::Ident {
        return recv.text.to_ascii_lowercase().contains("rng");
    }
    if recv.is_punct(')') {
        let lo = i.saturating_sub(14);
        return toks[lo..i].iter().any(|t| t.is_ident("SimRng"));
    }
    false
}

/// One allow annotation with its resolved coverage span (F4): an
/// annotation directly above an item covers the item's whole line
/// range; otherwise it covers its own line and the next (the legacy
/// line-level form, still right for trailing comments and single-line
/// sites).
struct AllowSpan {
    rule: String,
    decl_line: u32,
    lo: u32,
    hi: u32,
}

struct AllowTable {
    spans: Vec<AllowSpan>,
    used: Vec<bool>,
}

impl AllowTable {
    fn build(lexed: &Lexed, toks: &[Tok], scopes: &ScopeTree) -> AllowTable {
        let mut spans = Vec::new();
        for a in &lexed.allows {
            let (mut lo, mut hi) = (a.line, a.line + 1);
            // The first token strictly after the annotation line: if it
            // anchors an item, the allow scopes to that item.
            let ti = toks.partition_point(|t| t.line <= a.line);
            if ti < toks.len() {
                if let Some(s) = scopes.at_anchor(ti) {
                    lo = a.line.min(s.line);
                    hi = s.end_line;
                }
            }
            spans.push(AllowSpan {
                rule: a.rule.clone(),
                decl_line: a.line,
                lo,
                hi,
            });
        }
        AllowTable {
            used: vec![false; spans.len()],
            spans,
        }
    }

    fn allowed(&mut self, line: u32, rule: &str) -> bool {
        let mut hit = false;
        for (i, s) in self.spans.iter().enumerate() {
            if s.rule == rule && s.lo <= line && line <= s.hi {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }
}

fn push(
    out: &mut FileFindings,
    ctx: &FileCtx,
    code: &'static str,
    id: &'static str,
    line: u32,
    end_line: u32,
    msg: String,
) {
    out.diagnostics.push(Diagnostic {
        code,
        id,
        path: ctx.path.clone(),
        line,
        end_line,
        msg,
    });
}

/// Lint one file against the registry and manifest.
pub fn lint_file(ctx: &FileCtx, src: &str, reg: &Registry, man: &Manifest) -> FileFindings {
    lint_file_timed(ctx, src, reg, man, &mut RuleTimer::disabled())
}

/// [`lint_file`] with per-pass timing recorded into `timer`.
pub fn lint_file_timed(
    ctx: &FileCtx,
    src: &str,
    reg: &Registry,
    man: &Manifest,
    timer: &mut RuleTimer<'_>,
) -> FileFindings {
    let lexed = timer.time("lex", || lex(src));
    let toks = &lexed.toks;
    let mask = timer.time("scope", || test_mask(toks));
    let scopes = timer.time("scope", || parse_scopes(toks));
    let loops = timer.time("scope", || loop_depths(toks));
    let mut allows = AllowTable::build(&lexed, toks, &scopes);
    let mut out = FileFindings::default();

    for (line, msg) in &lexed.malformed {
        push(
            &mut out,
            ctx,
            "A1",
            "bad-annotation",
            *line,
            *line,
            msg.clone(),
        );
    }

    let r = ctx.rules;
    if r.d1 {
        timer.time("D1", || pass_d1(ctx, toks, &mask, &mut allows, &mut out));
    }
    if r.d2 {
        timer.time("D2", || pass_d2(ctx, toks, &mask, &mut allows, &mut out));
    }
    if r.d3 {
        timer.time("D3", || {
            pass_d3(ctx, toks, &mask, reg, &mut allows, &mut out)
        });
    }
    if r.d4 {
        timer.time("D4", || pass_d4(ctx, toks, &mask, &mut allows, &mut out));
    }
    if r.d5 {
        timer.time("D5", || pass_d5(&mut out, toks, &mask));
    }
    if r.f1 {
        timer.time("F1", || {
            pass_f1(ctx, toks, &mask, &scopes, man, &mut allows, &mut out)
        });
    }
    if r.f2 {
        timer.time("F2", || {
            pass_f2(ctx, toks, &mask, &scopes, man, &mut allows, &mut out)
        });
    }
    if r.f3 {
        timer.time("F3", || {
            pass_f3(ctx, toks, &mask, &scopes, &loops, &mut allows, &mut out)
        });
    }

    out.fns = scopes
        .scopes
        .iter()
        .filter(|s| s.kind == ScopeKind::Fn)
        .map(|s| s.qualified.clone())
        .collect();

    for (ai, span) in allows.spans.iter().enumerate() {
        if !allows.used[ai] {
            push(
                &mut out,
                ctx,
                "A2",
                "unused-allow",
                span.decl_line,
                span.decl_line,
                format!(
                    "lint:allow({}) suppresses nothing — stale annotations hide future \
                     violations; delete it",
                    span.rule
                ),
            );
        }
    }

    out.diagnostics
        .sort_by(|a, b| (a.line, a.id).cmp(&(b.line, b.id)));
    out
}

fn pass_d1(
    ctx: &FileCtx,
    toks: &[Tok],
    mask: &[bool],
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "HashMap" | "HashSet") && !allows.allowed(t.line, "hash-order")
        {
            push(
                out,
                ctx,
                "D1",
                "hash-order",
                t.line,
                t.line,
                format!(
                    "`{}` in sim-visible crate `{}`: iteration order is \
                     seed-dependent and can leak into event ordering or reported \
                     numbers; use BTreeMap/BTreeSet (or sorted iteration) or \
                     justify with `// lint:allow(hash-order, <why order never \
                     escapes>)`",
                    t.text, ctx.crate_name
                ),
            );
        }
    }
}

fn pass_d2(
    ctx: &FileCtx,
    toks: &[Tok],
    mask: &[bool],
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    let _ = ctx;
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "Instant" | "SystemTime")
            && !allows.allowed(t.line, "wall-clock")
        {
            push(
                out,
                ctx,
                "D2",
                "wall-clock",
                t.line,
                t.line,
                format!(
                    "`{}` outside the bench harness: wall-clock reads make runs \
                     machine-dependent; simulation code must use SimTime only",
                    t.text
                ),
            );
        }
    }
}

fn pass_d4(
    ctx: &FileCtx,
    toks: &[Tok],
    mask: &[bool],
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let line = t.line;
        if matches!(t.text.as_str(), "Mutex" | "RwLock" | "Condvar")
            && !allows.allowed(line, "sync-primitive")
        {
            push(
                out,
                ctx,
                "D4",
                "sync-primitive",
                line,
                line,
                format!(
                    "`{}` in event-handler crate `{}`: the engine is \
                     single-threaded by design; blocking primitives in event \
                     paths reintroduce host-scheduling nondeterminism",
                    t.text, ctx.crate_name
                ),
            );
        } else if t.text == "spawn" {
            // thread::spawn — walk back over the `::`.
            let mut j = i;
            while j > 0 && toks[j - 1].is_punct(':') {
                j -= 1;
            }
            if j > 0 && toks[j - 1].is_ident("thread") && !allows.allowed(line, "sync-primitive") {
                push(
                    out,
                    ctx,
                    "D4",
                    "sync-primitive",
                    line,
                    line,
                    "`thread::spawn` in event-handler crate: event ordering must \
                     never depend on host scheduling"
                        .to_string(),
                );
            }
        }
    }
}

fn pass_d3(
    ctx: &FileCtx,
    toks: &[Tok],
    mask: &[bool],
    reg: &Registry,
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let line = t.line;
        if t.text == "split" && is_rng_split(toks, i) {
            // Collect the argument tokens to the matching `)`.
            let mut depth = 1usize;
            let mut j = i + 2; // past `(`
            let mut bare_int: Option<u32> = None;
            let mut has_registered = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                } else if toks[j].kind == TokKind::Int {
                    bare_int.get_or_insert(toks[j].line);
                } else if toks[j].kind == TokKind::Ident && reg.contains(&toks[j].text) {
                    has_registered = true;
                }
                j += 1;
            }
            if let Some(int_line) = bare_int {
                if !allows.allowed(int_line, "rng-stream") && !allows.allowed(line, "rng-stream") {
                    push(
                        out,
                        ctx,
                        "D3",
                        "rng-stream",
                        line,
                        line,
                        "bare integer stream id in `SimRng::split`: name the stream \
                         in `simcore::streams` so collisions are centrally checked"
                            .to_string(),
                    );
                }
            } else if !has_registered && !allows.allowed(line, "rng-stream") {
                push(
                    out,
                    ctx,
                    "D3",
                    "rng-stream",
                    line,
                    line,
                    "`SimRng::split` argument names no `simcore::streams` constant; \
                     stream ids must come from the central registry"
                        .to_string(),
                );
            }
        } else if t.text == "const"
            && !ctx.is_registry
            && toks
                .get(i + 1)
                .is_some_and(|t2| t2.kind == TokKind::Ident && reg.contains(&t2.text))
        {
            // A local `const` reusing a registry name shadows the
            // central id — the lint would then accept `split(NAME)`
            // while the value silently diverges.
            push(
                out,
                ctx,
                "D3",
                "rng-stream",
                toks[i + 1].line,
                toks[i + 1].line,
                format!(
                    "local const `{}` shadows a simcore::streams registry name; \
                     import the registry constant instead",
                    toks[i + 1].text
                ),
            );
        }
    }
}

fn pass_d5(out: &mut FileFindings, toks: &[Tok], mask: &[bool]) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "panic" && toks.get(i + 1).is_some_and(|t2| t2.is_punct('!')) {
            out.panics += 1;
        } else if t.text == "unwrap"
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t2| t2.is_punct('('))
        {
            out.unwraps += 1;
        }
    }
}

// ---------------------------------------------------------------------
// F1 `index-funnel`
// ---------------------------------------------------------------------

/// `WorldIndex`'s `pub(crate)` mutator methods.
const INDEX_MUTATORS: &[&str] = &[
    "register_worker",
    "on_state_change",
    "on_gpu_change",
    "queue_delta_push",
    "queue_delta_pop",
];

/// `WorldIndex`'s state fields.
const INDEX_FIELDS: &[&str] = &[
    "enabled",
    "idle",
    "live",
    "not_dead",
    "total",
    "crashed",
    "dead",
    "state_counts",
    "residents",
    "queued_known_nanos",
    "queued_unknown",
];

/// Mutating container methods — calling one of these on an index field
/// is a write even without an `=`.
const CONTAINER_MUTATORS: &[&str] = &[
    "insert",
    "remove",
    "clear",
    "push",
    "push_back",
    "pop",
    "pop_front",
    "retain",
    "resize_with",
    "take",
    "get_mut",
    "append",
    "extend",
];

/// Is token `j` the start of an assignment operator (`=`, `+=`, ...)
/// that writes to whatever precedes it? `==`, `=>`, `!=`, `<=`, `>=`
/// never match: their first char is not `=`/arith, or the `=` is
/// followed by `=`/`>`.
fn is_assignment_op(toks: &[Tok], j: usize) -> bool {
    let Some(t) = toks.get(j) else { return false };
    if t.is_punct('=') {
        return !toks
            .get(j + 1)
            .is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
    }
    matches!(
        t.text.as_str(),
        "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
    ) && t.kind == TokKind::Punct
        && toks.get(j + 1).is_some_and(|n| n.is_punct('='))
}

fn pass_f1(
    ctx: &FileCtx,
    toks: &[Tok],
    mask: &[bool],
    scopes: &ScopeTree,
    man: &Manifest,
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    let n = toks.len();
    for i in 0..n {
        if mask[i] || !toks[i].is_ident("index") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            continue;
        }
        let Some(m) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let line = toks[i].line;
        let what = if INDEX_MUTATORS.contains(&m.text.as_str())
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            format!("call to WorldIndex::{}", m.text)
        } else if INDEX_FIELDS.contains(&m.text.as_str()) {
            // Skip any `[...]` index groups after the field name.
            let mut j = i + 3;
            while j < n && toks[j].is_punct('[') {
                j = crate::scope::match_close_pub(toks, j, n) + 1;
            }
            if is_assignment_op(toks, j) {
                format!("write to WorldIndex field `{}`", m.text)
            } else if toks.get(j).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && CONTAINER_MUTATORS.contains(&t.text.as_str())
                })
                && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
            {
                format!("`.{}()` on WorldIndex field `{}`", toks[j + 1].text, m.text)
            } else {
                continue;
            }
        } else {
            continue;
        };
        let qualified = scopes
            .enclosing_fn(i)
            .map(|s| s.qualified.clone())
            .unwrap_or_default();
        if man.is_funnel(&qualified) {
            continue;
        }
        if allows.allowed(line, "index-funnel") {
            continue;
        }
        let q = if qualified.is_empty() {
            "<top level>".to_string()
        } else {
            format!("`{qualified}`")
        };
        push(
            out,
            ctx,
            "F1",
            "index-funnel",
            line,
            line,
            format!(
                "{what} outside the funnel set (in {q}): WorldIndex mutations must \
                 go through the fns listed in {MANIFEST_FILE} [index-funnel] so the \
                 incremental index cannot drift from the world state it mirrors"
            ),
        );
    }
}

// ---------------------------------------------------------------------
// F2 `dirty-domain`
// ---------------------------------------------------------------------

/// Container fields of `GpuDevice` whose listed methods change which
/// kernels/contexts exist or how memory pressure is computed — i.e. the
/// inputs of `recompute`'s per-domain rates.
const RATE_CONTAINERS: &[(&str, &[&str])] = &[
    (
        "kernels",
        &["push", "remove", "remove_where", "clear", "get_mut"],
    ),
    ("ctxs", &["insert", "remove"]),
    ("mem", &["alloc", "freeb"]),
];

/// Scalar fields of `GpuDevice` whose assignment changes rates.
const RATE_FIELDS: &[&str] = &["slowdown", "mode", "mps_interference", "allow_uvm", "mem"];

/// The dirty-marking entry points.
const DIRTY_MARKS: &[&str] = &["mark_domain_dirty", "mark_all_dirty"];

fn pass_f2(
    ctx: &FileCtx,
    toks: &[Tok],
    mask: &[bool],
    scopes: &ScopeTree,
    man: &Manifest,
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    for s in &scopes.scopes {
        if s.kind != ScopeKind::Fn || scopes.self_type_of(s) != Some("GpuDevice") {
            continue;
        }
        let Some((open, close)) = s.body else {
            continue;
        };
        if mask[s.anchor] || mask[open] {
            continue;
        }
        let mut trigger: Option<(String, u32)> = None;
        let mut marks = false;
        let mut i = open + 1;
        while i < close {
            let t = &toks[i];
            if t.kind == TokKind::Ident {
                if DIRTY_MARKS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    marks = true;
                }
                if toks[i - 1].is_punct('.') && trigger.is_none() {
                    let name = t.text.as_str();
                    if name == "mem_pool_for" && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                        trigger = Some(("`.mem_pool_for(...)`".to_string(), t.line));
                    }
                    for (field, methods) in RATE_CONTAINERS {
                        if name == *field
                            && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                            && toks.get(i + 2).is_some_and(|n| {
                                n.kind == TokKind::Ident && methods.contains(&n.text.as_str())
                            })
                            && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
                        {
                            trigger =
                                Some((format!("`.{}.{}(...)`", field, toks[i + 2].text), t.line));
                        }
                    }
                    if RATE_FIELDS.contains(&name) && is_assignment_op(toks, i + 1) {
                        trigger = Some((format!("assignment to `.{name}`"), t.line));
                    }
                    // The kernel table's raw vector reaches kernels past
                    // its listed mutators, so any use counts as one.
                    if name == "kernels"
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                        && toks
                            .get(i + 2)
                            .is_some_and(|n| n.kind == TokKind::Ident && n.text == "list")
                    {
                        trigger = Some(("`.kernels.list`".to_string(), t.line));
                    }
                }
            }
            i += 1;
        }
        let Some((what, tline)) = trigger else {
            continue;
        };
        if marks || man.is_dirty_exempt(&s.qualified) {
            continue;
        }
        if allows.allowed(s.line, "dirty-domain") || allows.allowed(tline, "dirty-domain") {
            continue;
        }
        push(
            out,
            ctx,
            "F2",
            "dirty-domain",
            s.line,
            s.end_line,
            format!(
                "`GpuDevice::{}` mutates rate-feeding device state ({what}, line \
                 {tline}) without calling mark_domain_dirty/mark_all_dirty: \
                 a skipped domain would keep stale rates and the \
                 dirty-tracking on/off bit-equivalence breaks; mark the affected \
                 domain or list the fn in {MANIFEST_FILE} [dirty-exempt] with a \
                 justification",
                s.name
            ),
        );
    }
}

// ---------------------------------------------------------------------
// F3 `stream-hygiene`
// ---------------------------------------------------------------------

/// Keywords that can directly precede a parenthesized expression without
/// making it a call.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "return"
            | "for"
            | "in"
            | "loop"
            | "let"
            | "else"
            | "move"
            | "break"
            | "continue"
            | "unsafe"
            | "as"
            | "where"
            | "await"
            | "yield"
    )
}

/// Walk back from the `.` of a method call to the first token of the
/// receiver expression: over call/index groups, field chains and `::`
/// paths.
fn expr_start(toks: &[Tok], dot: usize) -> usize {
    let mut p = dot;
    while p > 0 {
        let prev = p - 1;
        let t = &toks[prev];
        if t.is_punct(')') || t.is_punct(']') {
            let open = crate::scope::match_open_pub(toks, prev);
            if open == 0 {
                return 0;
            }
            p = open;
            continue;
        }
        if t.kind == TokKind::Ident {
            p = prev;
            if p >= 1 && toks[p - 1].is_punct('.') {
                p -= 1;
                continue;
            }
            if p >= 2 && toks[p - 1].is_punct(':') && toks[p - 2].is_punct(':') {
                p -= 2;
                continue;
            }
            return p;
        }
        return p;
    }
    p
}

/// Walk back from inside an argument list to the unmatched opening
/// bracket enclosing it.
fn enclosing_opener(toks: &[Tok], from: usize) -> Option<usize> {
    let (mut pd, mut bd, mut cd) = (0i32, 0i32, 0i32);
    let mut i = from;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        if t.is_punct(')') {
            pd += 1;
        } else if t.is_punct('(') {
            if pd == 0 {
                return Some(i);
            }
            pd -= 1;
        } else if t.is_punct(']') {
            bd += 1;
        } else if t.is_punct('[') {
            if bd == 0 {
                return Some(i);
            }
            bd -= 1;
        } else if t.is_punct('}') {
            cd += 1;
        } else if t.is_punct('{') {
            if cd == 0 {
                return Some(i);
            }
            cd -= 1;
        }
    }
    None
}

/// Is the token at `idx` (directly before a `(`) a call head?
fn call_head(toks: &[Tok], idx: usize) -> Option<String> {
    let t = toks.get(idx)?;
    if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
        return Some(t.text.clone());
    }
    if t.is_punct('>') {
        return Some("<generic call>".to_string());
    }
    None
}

/// Flow-lite classification of where a split result goes. Returns a
/// description when it escapes into a struct field or across a fn
/// boundary, `None` for the blessed shape (a named local binding).
fn classify_split_flow(toks: &[Tok], split_tok: usize) -> Option<String> {
    let es = expr_start(toks, split_tok - 1);
    // Struct-literal field init: `Worker { rng: rng.split(..) }`.
    if es >= 3
        && toks[es - 1].is_punct(':')
        && !toks[es - 2].is_punct(':')
        && toks[es - 2].kind == TokKind::Ident
        && (toks[es - 3].is_punct('{') || toks[es - 3].is_punct(','))
    {
        return Some(format!(
            "split result stored directly into struct field `{}`",
            toks[es - 2].text
        ));
    }
    // Field assignment: `self.rng = rng.split(..)`.
    if es >= 3
        && toks[es - 1].is_punct('=')
        && !toks.get(es).is_some_and(|t| t.is_punct('='))
        && toks[es - 2].kind == TokKind::Ident
        && toks[es - 3].is_punct('.')
    {
        return Some(format!(
            "split result assigned into field `.{}`",
            toks[es - 2].text
        ));
    }
    // First argument of a call: `Ctor::new(rng.split(..))`.
    if es >= 2 && toks[es - 1].is_punct('(') {
        if let Some(callee) = call_head(toks, es - 2) {
            return Some(format!(
                "split result passed directly across a fn boundary (argument to `{callee}`)"
            ));
        }
    }
    // Later argument: `f(a, rng.split(..))`.
    if es >= 1 && toks[es - 1].is_punct(',') {
        if let Some(open) = enclosing_opener(toks, es - 1) {
            if toks[open].is_punct('(') && open >= 1 {
                if let Some(callee) = call_head(toks, open - 1) {
                    return Some(format!(
                        "split result passed directly across a fn boundary (argument to `{callee}`)"
                    ));
                }
            }
        }
    }
    None
}

fn pass_f3(
    ctx: &FileCtx,
    toks: &[Tok],
    mask: &[bool],
    scopes: &ScopeTree,
    loops: &[u16],
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    let _ = scopes;
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("split") || !is_rng_split(toks, i) {
            continue;
        }
        let line = toks[i].line;
        let why = if loops[i] > 0 {
            Some(
                "`SimRng::split` inside a loop body: per-iteration splits tie stream \
                 identity to iteration order and count"
                    .to_string(),
            )
        } else {
            classify_split_flow(toks, i)
        };
        let Some(why) = why else { continue };
        if allows.allowed(line, "stream-hygiene") {
            continue;
        }
        push(
            out,
            ctx,
            "F3",
            "stream-hygiene",
            line,
            line,
            format!(
                "{why}; bind the split result to a named local at construction \
                 scope so the stream's origin is auditable, or scope a \
                 lint:allow(stream-hygiene, <why the wiring is fixed>) on the \
                 owning fn"
            ),
        );
    }
}

/// Catalog entry, for reports and `--list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Catalog code (`D1` ... `A2`).
    pub code: &'static str,
    /// Rule id used in diagnostics and allow annotations.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The full rule catalog.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        code: "D1",
        id: "hash-order",
        summary: "no HashMap/HashSet in sim-visible crates unless order provably never escapes",
    },
    RuleInfo {
        code: "D2",
        id: "wall-clock",
        summary: "no Instant/SystemTime outside the bench wall-clock harness",
    },
    RuleInfo {
        code: "D3",
        id: "rng-stream",
        summary: "every SimRng::split id must be a named simcore::streams constant",
    },
    RuleInfo {
        code: "D4",
        id: "sync-primitive",
        summary: "no Mutex/RwLock/Condvar/thread::spawn in event-handler crates",
    },
    RuleInfo {
        code: "D5",
        id: "panic-budget",
        summary: "non-test panic!/.unwrap() counts per crate must not exceed the baseline",
    },
    RuleInfo {
        code: "F1",
        id: "index-funnel",
        summary: "WorldIndex writes only inside the manifest's [index-funnel] fns",
    },
    RuleInfo {
        code: "F2",
        id: "dirty-domain",
        summary: "GpuDevice rate-state mutators must mark dirty domains or be manifest-exempt",
    },
    RuleInfo {
        code: "F3",
        id: "stream-hygiene",
        summary: "no SimRng::split in loops, struct fields, or direct call arguments",
    },
    RuleInfo {
        code: "F4",
        id: "scoped-allow",
        summary: "lint:allow above an item covers the whole item; unused allows still fail (A2)",
    },
    RuleInfo {
        code: "M1",
        id: "manifest",
        summary: "every lint-manifest.txt entry must resolve to a defined fn (drift check)",
    },
    RuleInfo {
        code: "R1",
        id: "stream-registry",
        summary: "the streams registry itself: literal initializers, duplicate-free ids",
    },
    RuleInfo {
        code: "A1",
        id: "bad-annotation",
        summary: "lint:allow annotations must name a known rule and carry a reason",
    },
    RuleInfo {
        code: "A2",
        id: "unused-allow",
        summary: "lint:allow annotations that suppress nothing must be deleted",
    },
];

/// Look up catalog info by rule id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    CATALOG.iter().find(|r| r.id == id)
}

/// Per-crate D5 counters.
pub type BudgetCounts = BTreeMap<String, (u64, u64)>;
