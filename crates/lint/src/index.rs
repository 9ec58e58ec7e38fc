//! The item indexer: one walk over every lexed source file, recording
//! each fn/method definition together with the per-function *facts* the
//! reachability engine ([`crate::graph`]) consumes — panic sites,
//! allocation sites, and outgoing calls — plus struct field types (for
//! receiver resolution) and `// lint:root(...)` markers.
//!
//! The indexer is lexical, like the passes: it knows token shapes, not
//! types. Its approximations are deliberate and documented in DESIGN §6:
//!
//! * impl/trait headers and fn signatures are parsed just far enough to
//!   recover the receiver type (generics stripped) and parameter type
//!   heads (`q: &mut UrlQueue` records `q → UrlQueue`);
//! * calls are recorded with a best-effort receiver classification
//!   (`self.x`, `self.field.x`, typed local, qualified path, free, or
//!   unknown) — resolution happens later, against the whole index;
//! * test code (`tests/`/`benches/` files, `#[cfg(test)]` regions) is
//!   never indexed, so test-only panics cannot poison the closure.

use crate::findings::Finding;
use crate::lexer::{Tok, TokKind};
use crate::passes::{SourceFile, BAD_ROOT};

/// Root property bit: the function must be transitively panic-free.
pub const ROOT_PANIC_FREE: u8 = 1;
/// Root property bit: the function must be transitively alloc-free.
pub const ROOT_ALLOC_FREE: u8 = 2;

/// One panic/allocation site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What the site is (`.unwrap()`, `Vec::new()`, …), for messages.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// How a call's receiver was classified at the call site.
#[derive(Debug, Clone)]
pub enum Recv {
    /// `self.f.g.method(...)` — fields (possibly empty for plain
    /// `self.method(...)`) to be folded through the struct-field index
    /// starting from the enclosing impl type.
    SelfPath(Vec<String>),
    /// `local.f.method(...)` where `local` has a recorded type hint.
    Local(String, Vec<String>),
    /// Path-qualified call: the last qualifying segment (`UrlQueue` in
    /// `crate::queue::UrlQueue::pop`), `Self` meaning the impl type.
    Path(String),
    /// Free call `name(...)` with no qualifier.
    Free,
    /// Method call on an expression receiver (`xs[i].m()`, `f().m()`) or
    /// an unhinted local — resolved by name against all candidates.
    Unknown,
}

/// One outgoing call recorded in a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (method or function identifier).
    pub name: String,
    /// Receiver classification.
    pub recv: Recv,
    /// Call-site line.
    pub line: u32,
    /// Call-site column.
    pub col: u32,
}

/// One indexed fn/method definition with its facts.
#[derive(Debug)]
pub struct FnDef {
    /// Function name, verbatim.
    pub name: String,
    /// Enclosing impl/trait type (generics stripped); `None` = free fn.
    pub owner: Option<String>,
    /// Defining file, scan-root relative.
    pub path: String,
    /// Line of the name token.
    pub line: u32,
    /// Column of the name token.
    pub col: u32,
    /// Declared root properties ([`ROOT_PANIC_FREE`] | [`ROOT_ALLOC_FREE`]).
    pub roots: u8,
    /// Hard panic sites (`unwrap`/`expect`/panicking macros).
    pub panics: Vec<Site>,
    /// Slice/array indexing sites (each can panic out of bounds).
    pub indexing: Vec<Site>,
    /// Allocation sites (`Vec::new`, `.collect()`, `format!`, …).
    pub allocs: Vec<Site>,
    /// Outgoing calls, in source order.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// `Owner::name` for methods, plain `name` for free fns.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One struct definition's named fields (type heads only).
#[derive(Debug)]
pub struct StructDef {
    /// Struct name, generics stripped.
    pub name: String,
    /// `(field, type head)` pairs — `levels: Vec<VecDeque<Entry>>`
    /// records `("levels", "Vec")`.
    pub fields: Vec<(String, String)>,
}

/// One `// lint:root(...)` marker and what it attached to.
#[derive(Debug)]
pub struct RootMarker {
    /// File containing the marker.
    pub path: String,
    /// Marker comment line.
    pub line: u32,
    /// Declared properties bitmask.
    pub props: u8,
    /// `Owner::name @ path:line` of the attached fn, when attachment
    /// succeeded; `None` produced a `bad-root` finding.
    pub target: Option<String>,
}

/// The whole-workspace item index.
#[derive(Debug, Default)]
pub struct Index {
    /// Every non-test fn definition, sorted by (path, line).
    pub fns: Vec<FnDef>,
    /// Struct field types for receiver resolution.
    pub structs: Vec<StructDef>,
    /// Every `lint:root` marker, resolved or not.
    pub roots: Vec<RootMarker>,
    /// `bad-root` findings produced while attaching markers.
    pub findings: Vec<Finding>,
}

impl Index {
    /// Index every source file. Files are expected in sorted order (the
    /// scanner guarantees it), so the index is deterministic.
    pub fn build(sources: &[SourceFile]) -> Index {
        let mut idx = Index::default();
        for file in sources {
            index_file(file, &mut idx);
        }
        idx.fns
            .sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
        idx.structs.sort_by(|a, b| a.name.cmp(&b.name));
        idx
    }
}

/// Rust keywords: never callee names, and their presence before `[`
/// means the bracket opens a literal/type, not an indexing expression.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Item-introducing keywords, used to decide what a root marker's "next
/// item" is.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "mod",
    "const",
    "static",
    "type",
    "use",
    "extern",
    "macro_rules",
];

/// Container constructors treated as allocation sites when called
/// path-qualified (`Vec::with_capacity`, `Box::new`, …). `Vec::new` and
/// friends are capacity-0 today but declare intent to grow, so the
/// policy counts them.
const ALLOC_CTOR_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "Box",
    "String",
    "BinaryHeap",
    "BTreeMap",
    "BTreeSet",
    "HashMap",
    "HashSet",
];
const ALLOC_CTOR_METHODS: &[&str] = &["new", "with_capacity", "from", "default"];

/// One open impl/trait context on the walker's stack.
struct Ctx {
    owner: String,
    /// Brace depth of the block body; pop when depth falls below it.
    body_depth: usize,
}

/// One open fn on the walker's stack: facts found while it is the
/// innermost open fn attribute to it.
struct Frame {
    def: FnDef,
    body_depth: usize,
    /// fn lies in test code — walked (to swallow its facts) but dropped.
    dead: bool,
    /// Local type hints: parameters plus `let x: T` bindings.
    hints: Vec<(String, String)>,
}

fn index_file(file: &SourceFile, idx: &mut Index) {
    let toks = &file.lexed.tokens;
    let mut fns: Vec<FnDef> = Vec::new();
    let mut ctxs: Vec<Ctx> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while frames.last().is_some_and(|f| f.body_depth > depth) {
                let f = frames.pop().expect("frame just checked");
                if !f.dead {
                    fns.push(f.def);
                }
            }
            while ctxs.last().is_some_and(|c| c.body_depth > depth) {
                ctxs.pop();
            }
            i += 1;
            continue;
        }
        // `#[attr]` / `#![attr]`: skip — attribute arguments look like
        // calls (`#[derive(Debug)]`) but are not.
        if t.is_punct("#") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("[")) {
                i = skip_brackets(toks, j);
                continue;
            }
            i += 1;
            continue;
        }
        // Slice/array indexing: `expr[`, where `expr` ends in a non-
        // keyword identifier, `)` or `]`. Type positions (`[u8; 4]`),
        // literals (`= [`), attributes and macros (`vec![`) all have a
        // different preceding token and are excluded.
        if t.is_punct("[") {
            let indexes = i > 0
                && match &toks[i - 1] {
                    p if p.kind == TokKind::Ident => !is_keyword(&p.text),
                    p => p.is_punct(")") || p.is_punct("]"),
                };
            if indexes {
                if let Some(f) = frames.last_mut() {
                    f.def.indexing.push(Site {
                        what: "slice/array indexing".to_string(),
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                i = enter_fn(file, toks, i, &ctxs, &mut frames, &mut depth);
            }
            "impl" => {
                i = enter_block(toks, i, &mut ctxs, &mut depth, BlockKind::Impl);
            }
            "trait" => {
                i = enter_block(toks, i, &mut ctxs, &mut depth, BlockKind::Trait);
            }
            "struct" => {
                i = parse_struct(toks, i, &mut idx.structs);
            }
            "enum" | "union" => {
                i = skip_item_body(toks, i);
            }
            "macro_rules" => {
                i = skip_item_body(toks, i);
            }
            "let" => {
                record_let_hint(toks, i, frames.last_mut());
                i += 1;
            }
            _ => {
                record_fact_or_call(toks, i, frames.last_mut(), &ctxs);
                i += 1;
            }
        }
    }
    // EOF closes everything still open.
    while let Some(f) = frames.pop() {
        if !f.dead {
            fns.push(f.def);
        }
    }

    attach_roots(file, toks, &mut fns, idx);
    idx.fns.append(&mut fns);
}

/// `toks[open]` is `[`; return the index just past its matching `]`.
fn skip_brackets(toks: &[Tok], open: usize) -> usize {
    let mut d = 1usize;
    let mut j = open + 1;
    while j < toks.len() && d > 0 {
        if toks[j].is_punct("[") {
            d += 1;
        } else if toks[j].is_punct("]") {
            d -= 1;
        }
        j += 1;
    }
    j
}

/// `toks[open]` is `<`; return the index just past its matching `>`.
/// `->` arrows inside bounds (`F: Fn(u32) -> bool`) do not close angles.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut d = 1usize;
    let mut j = open + 1;
    while j < toks.len() && d > 0 {
        let t = &toks[j];
        if t.is_punct("<") {
            d += 1;
        } else if t.is_punct(">") && !(j >= 1 && toks[j - 1].is_punct("-")) {
            d -= 1;
        }
        j += 1;
    }
    j
}

/// Skip an item (`enum`/`union`/`macro_rules`) whose body has nothing to
/// index: advance past the brace-matched body (or trailing `;`). Their
/// bodies contain declaration syntax (`Variant(u32)`) that would
/// otherwise be misread as calls.
fn skip_item_body(toks: &[Tok], kw: usize) -> usize {
    let mut j = kw + 1;
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if paren == 0 && t.is_punct(";") {
            return j + 1;
        } else if paren == 0 && t.is_punct("{") {
            let mut d = 1usize;
            let mut m = j + 1;
            while m < toks.len() && d > 0 {
                if toks[m].is_punct("{") {
                    d += 1;
                } else if toks[m].is_punct("}") {
                    d -= 1;
                }
                m += 1;
            }
            return m;
        }
        j += 1;
    }
    j
}

enum BlockKind {
    Impl,
    Trait,
}

/// Parse an `impl`/`trait` header, push its context, and return the
/// index just past the opening `{`. For `impl Trait for Type` the owner
/// is `Type`; generics and references are stripped to the type head.
fn enter_block(
    toks: &[Tok],
    kw: usize,
    ctxs: &mut Vec<Ctx>,
    depth: &mut usize,
    kind: BlockKind,
) -> usize {
    let mut j = kw + 1;
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(toks, j);
    }
    let owner = match kind {
        BlockKind::Trait => {
            let name = toks
                .get(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            name.unwrap_or_default()
        }
        BlockKind::Impl => {
            // Scan header tokens up to `{`/`where`, remembering the type
            // head seen last after a `for` (trait impl) or first
            // otherwise (inherent impl).
            let mut first_head: Option<String> = None;
            let mut after_for: Option<String> = None;
            let mut saw_for = false;
            let mut k = j;
            while k < toks.len() {
                let t = &toks[k];
                if t.is_punct("{") || t.is_ident("where") {
                    break;
                }
                if t.is_punct("<") {
                    k = skip_angles(toks, k);
                    continue;
                }
                if t.is_ident("for") {
                    saw_for = true;
                } else if t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const")
                {
                    // Path segments: keep overwriting so the last
                    // segment before `<`/`{` wins (`crate::q::UrlQueue`
                    // → `UrlQueue`).
                    if saw_for {
                        after_for = Some(t.text.clone());
                    } else {
                        first_head = Some(t.text.clone());
                    }
                }
                k += 1;
            }
            after_for.or(first_head).unwrap_or_default()
        }
    };
    // Advance to the body `{` (skipping bounds / where clauses).
    while j < toks.len() && !toks[j].is_punct("{") {
        if toks[j].is_punct(";") {
            return j + 1; // `trait X;`-like degenerate form
        }
        if toks[j].is_punct("<") {
            j = skip_angles(toks, j);
            continue;
        }
        j += 1;
    }
    if j >= toks.len() {
        return j;
    }
    *depth += 1;
    ctxs.push(Ctx {
        owner,
        body_depth: *depth,
    });
    j + 1
}

/// Parse a `struct` definition, recording named-field type heads, and
/// return the index past the item.
fn parse_struct(toks: &[Tok], kw: usize, out: &mut Vec<StructDef>) -> usize {
    let mut j = kw + 1;
    let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return kw + 1;
    };
    let name = name.text.clone();
    j += 1;
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(toks, j);
    }
    // Skip a where clause before the body.
    while j < toks.len()
        && !(toks[j].is_punct("{") || toks[j].is_punct("(") || toks[j].is_punct(";"))
    {
        if toks[j].is_punct("<") {
            j = skip_angles(toks, j);
            continue;
        }
        j += 1;
    }
    match toks.get(j) {
        Some(t) if t.is_punct("(") => {
            // Tuple struct: no named fields; skip to the `;`.
            let mut d = 1usize;
            j += 1;
            while j < toks.len() && d > 0 {
                if toks[j].is_punct("(") {
                    d += 1;
                } else if toks[j].is_punct(")") {
                    d -= 1;
                }
                j += 1;
            }
            out.push(StructDef {
                name,
                fields: Vec::new(),
            });
            j + 1 // past the `;`
        }
        Some(t) if t.is_punct("{") => {
            let mut fields = Vec::new();
            let mut d_paren = 0i32;
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct("}") {
                let t = &toks[k];
                if t.is_punct("(") || t.is_punct("[") {
                    d_paren += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    d_paren -= 1;
                } else if t.is_punct("<") {
                    k = skip_angles(toks, k);
                    continue;
                } else if t.is_punct("#") && toks.get(k + 1).is_some_and(|t| t.is_punct("[")) {
                    k = skip_brackets(toks, k + 1);
                    continue;
                } else if d_paren == 0
                    && t.kind == TokKind::Ident
                    && !is_keyword(&t.text)
                    && toks.get(k + 1).is_some_and(|p| p.is_punct(":"))
                {
                    if let Some(head) = type_head(toks, k + 2) {
                        fields.push((t.text.clone(), head));
                    }
                }
                k += 1;
            }
            out.push(StructDef { name, fields });
            k + 1
        }
        _ => {
            out.push(StructDef {
                name,
                fields: Vec::new(),
            });
            j + 1
        }
    }
}

/// The head of a type starting at `toks[j]`: strip `&`, lifetimes,
/// `mut`, `dyn`, `impl`, then take the last segment of the leading path
/// (`std::collections::HashMap<..>` → `HashMap`).
fn type_head(toks: &[Tok], mut j: usize) -> Option<String> {
    while toks.get(j).is_some_and(|t| {
        t.is_punct("&")
            || t.kind == TokKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn")
            || t.is_ident("impl")
    }) {
        j += 1;
    }
    let mut head = None;
    while let Some(t) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
        head = Some(t.text.clone());
        if toks.get(j + 1).is_some_and(|p| p.is_punct("::")) {
            j += 2;
        } else {
            break;
        }
    }
    head
}

/// Parse a `fn` header: name, parameter type hints, and the body `{`.
/// Pushes a [`Frame`] and returns the index just past the `{` (or past
/// the `;` for bodyless trait declarations, which are not indexed).
fn enter_fn(
    file: &SourceFile,
    toks: &[Tok],
    kw: usize,
    ctxs: &[Ctx],
    frames: &mut Vec<Frame>,
    depth: &mut usize,
) -> usize {
    let Some(name_tok) = toks.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        // `fn(u32) -> u32` in type position — not a definition.
        return kw + 1;
    };
    let mut j = kw + 2;
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(toks, j);
    }
    // Parameters.
    let mut hints: Vec<(String, String)> = Vec::new();
    if toks.get(j).is_some_and(|t| t.is_punct("(")) {
        let mut d = 1usize;
        let mut k = j + 1;
        while k < toks.len() && d > 0 {
            let t = &toks[k];
            if t.is_punct("(") {
                d += 1;
            } else if t.is_punct(")") {
                d -= 1;
            } else if t.is_punct("<") {
                k = skip_angles(toks, k);
                continue;
            } else if d == 1
                && t.kind == TokKind::Ident
                && !is_keyword(&t.text)
                && toks.get(k + 1).is_some_and(|p| p.is_punct(":"))
            {
                if let Some(head) = type_head(toks, k + 2) {
                    hints.push((t.text.clone(), head));
                }
            }
            k += 1;
        }
        j = k;
    }
    // Return type / where clause, then body `{` or declaration `;`.
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") {
            paren += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            paren -= 1;
        } else if paren == 0 && t.is_punct(";") {
            return j + 1; // bodyless declaration
        } else if paren == 0 && t.is_punct("{") {
            break;
        }
        j += 1;
    }
    if j >= toks.len() {
        return j;
    }
    *depth += 1;
    let dead = file.is_test_file || file.in_test(name_tok.line);
    frames.push(Frame {
        def: FnDef {
            name: name_tok.text.clone(),
            owner: ctxs.last().map(|c| c.owner.clone()),
            path: file.rel.clone(),
            line: name_tok.line,
            col: name_tok.col,
            roots: 0,
            panics: Vec::new(),
            indexing: Vec::new(),
            allocs: Vec::new(),
            calls: Vec::new(),
        },
        body_depth: *depth,
        dead,
        hints,
    });
    j + 1
}

/// `let [mut] name : Type = …` — record a local type hint in the
/// innermost open fn.
fn record_let_hint(toks: &[Tok], let_at: usize, frame: Option<&mut Frame>) {
    let Some(frame) = frame else { return };
    let mut j = let_at + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return;
    };
    if !toks.get(j + 1).is_some_and(|p| p.is_punct(":")) {
        return;
    }
    if let Some(head) = type_head(toks, j + 2) {
        frame.hints.push((name.text.clone(), head));
    }
}

/// Panicking macros (facts, not calls).
const PANIC_MACROS: &[(&str, &str)] = &[
    ("panic", "panic!"),
    ("todo", "todo!"),
    ("unimplemented", "unimplemented!"),
    ("unreachable", "unreachable!"),
];
/// Allocating macros.
const ALLOC_MACROS: &[(&str, &str)] = &[("format", "format!"), ("vec", "vec!")];

/// Method names that *are* the fact (no call edge recorded).
const PANIC_METHODS: &[(&str, &str)] = &[("unwrap", ".unwrap()"), ("expect", ".expect()")];
const ALLOC_METHODS: &[(&str, &str)] = &[
    ("collect", ".collect()"),
    ("to_vec", ".to_vec()"),
    ("with_capacity", "with_capacity()"),
];

/// Classify the identifier at `i` as a panic/alloc fact or an outgoing
/// call, attributing it to the innermost open fn.
fn record_fact_or_call(toks: &[Tok], i: usize, frame: Option<&mut Frame>, ctxs: &[Ctx]) {
    let Some(frame) = frame else { return };
    let t = &toks[i];
    if is_keyword(&t.text) {
        return;
    }
    let site = |what: &str| Site {
        what: what.to_string(),
        line: t.line,
        col: t.col,
    };
    // Macros: `name!…`.
    if toks.get(i + 1).is_some_and(|p| p.is_punct("!")) {
        if let Some((_, what)) = PANIC_MACROS.iter().find(|(n, _)| *n == t.text) {
            frame.def.panics.push(site(what));
        } else if let Some((_, what)) = ALLOC_MACROS.iter().find(|(n, _)| *n == t.text) {
            frame.def.allocs.push(site(what));
        }
        return;
    }
    // Callee shape: `name(` or `name::<…>(`.
    let after = match toks.get(i + 1) {
        Some(p) if p.is_punct("(") => i + 1,
        Some(p) if p.is_punct("::") && toks.get(i + 2).is_some_and(|a| a.is_punct("<")) => {
            let past = skip_angles(toks, i + 2);
            if toks.get(past).is_some_and(|p| p.is_punct("(")) {
                past
            } else {
                return;
            }
        }
        _ => return,
    };
    let _ = after;
    let prev = i.checked_sub(1).map(|p| &toks[p]);
    // Method call: `recv.name(…)`.
    if prev.is_some_and(|p| p.is_punct(".")) {
        if let Some((_, what)) = PANIC_METHODS.iter().find(|(n, _)| *n == t.text) {
            frame.def.panics.push(site(what));
            return;
        }
        if let Some((_, what)) = ALLOC_METHODS.iter().find(|(n, _)| *n == t.text) {
            frame.def.allocs.push(site(what));
            return;
        }
        let recv = receiver_of(toks, i, frame);
        frame.def.calls.push(Call {
            name: t.text.clone(),
            recv,
            line: t.line,
            col: t.col,
        });
        return;
    }
    // Path call: `A::B::name(…)`.
    if prev.is_some_and(|p| p.is_punct("::")) {
        let qual = path_qualifier(toks, i);
        let Some(qual) = qual else { return };
        // Container constructors are allocation facts, not edges.
        if ALLOC_CTOR_TYPES.contains(&qual.as_str())
            && ALLOC_CTOR_METHODS.contains(&t.text.as_str())
        {
            frame
                .def
                .allocs
                .push(site(&format!("{qual}::{}()", t.text)));
            return;
        }
        let qual = if qual == "Self" {
            match ctxs.last() {
                Some(c) => c.owner.clone(),
                None => qual,
            }
        } else {
            qual
        };
        frame.def.calls.push(Call {
            name: t.text.clone(),
            recv: Recv::Path(qual),
            line: t.line,
            col: t.col,
        });
        return;
    }
    // Free call `name(…)`.
    frame.def.calls.push(Call {
        name: t.text.clone(),
        recv: Recv::Free,
        line: t.line,
        col: t.col,
    });
}

/// Walk back from the method name at `i` (`toks[i-1]` is `.`) and
/// classify the receiver expression.
fn receiver_of(toks: &[Tok], i: usize, frame: &Frame) -> Recv {
    // Collect the trailing `.`-separated ident chain of the receiver.
    let mut segs: Vec<String> = Vec::new();
    let mut j = i - 2; // last token of the receiver expression
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            segs.push(t.text.clone());
            if j >= 2 && toks[j - 1].is_punct(".") && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
                continue;
            }
            // A `.` before the chain base means the base itself is an
            // expression (`f().x.m()`) — unknown.
            if j >= 1 && toks[j - 1].is_punct(".") {
                return Recv::Unknown;
            }
            break;
        }
        return Recv::Unknown;
    }
    segs.reverse();
    let (base, fields) = segs.split_first().expect("chain has a base");
    if base == "self" {
        return Recv::SelfPath(fields.to_vec());
    }
    if let Some((_, ty)) = frame.hints.iter().rev().find(|(n, _)| n == base) {
        return Recv::Local(ty.clone(), fields.to_vec());
    }
    Recv::Unknown
}

/// The last qualifying path segment before the callee at `i`
/// (`crate::queue::UrlQueue::pop` → `UrlQueue`). `None` when the path
/// begins with a non-ident (e.g. `<T as Trait>::m`).
fn path_qualifier(toks: &[Tok], i: usize) -> Option<String> {
    let j = i.checked_sub(2)?;
    let t = toks.get(j)?;
    if t.kind == TokKind::Ident {
        Some(t.text.clone())
    } else {
        None
    }
}

/// Parse and attach every `// lint:root(...)` marker in `file` to the
/// next fn item, producing `bad-root` findings for markers that do not
/// resolve. `bad-root` is deliberately not suppressible: a typo'd root
/// silently shrinks the proved surface.
fn attach_roots(file: &SourceFile, toks: &[Tok], fns: &mut [FnDef], idx: &mut Index) {
    for c in &file.lexed.comments {
        if c.is_doc() {
            continue;
        }
        let Some(pos) = c.text.find("lint:root(") else {
            continue;
        };
        let bad = |why: &str| Finding {
            lint: BAD_ROOT,
            path: file.rel.clone(),
            line: c.start_line,
            col: 1,
            message: format!(
                "invalid lint:root marker — {why} (grammar: \
                 `// lint:root(panic-free[, alloc-free])` on the line above a fn)"
            ),
        };
        let rest = &c.text[pos + "lint:root(".len()..];
        let Some(close) = rest.find(')') else {
            idx.findings.push(bad("missing closing parenthesis"));
            continue;
        };
        let mut props = 0u8;
        let mut malformed = false;
        for p in rest[..close].split(',') {
            match p.trim() {
                "panic-free" => props |= ROOT_PANIC_FREE,
                "alloc-free" => props |= ROOT_ALLOC_FREE,
                other => {
                    idx.findings.push(bad(&format!(
                        "unknown root property `{other}` \
                         (expected `panic-free` or `alloc-free`)"
                    )));
                    malformed = true;
                }
            }
        }
        if malformed {
            continue;
        }
        // The marker claims the next *item*; it must be a fn.
        let next_item = toks.iter().find(|t| {
            t.line >= c.start_line
                && t.kind == TokKind::Ident
                && ITEM_KEYWORDS.contains(&t.text.as_str())
        });
        let target = match next_item {
            Some(kw) if kw.is_ident("fn") => {
                let name_line = toks
                    .iter()
                    .position(|t| std::ptr::eq(t, kw))
                    .and_then(|k| toks.get(k + 1))
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| (t.text.clone(), t.line));
                name_line.and_then(|(name, line)| {
                    fns.iter_mut()
                        .find(|f| f.name == name && f.line == line)
                        .map(|f| {
                            f.roots |= props;
                            format!("{} @ {}:{}", f.display(), f.path, f.line)
                        })
                })
            }
            _ => None,
        };
        if target.is_none() {
            idx.findings.push(bad(
                "the marker does not attach to an indexed (non-test) fn",
            ));
        }
        idx.roots.push(RootMarker {
            path: file.rel.clone(),
            line: c.start_line,
            props,
            target,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(src: &str) -> Index {
        let file = SourceFile::new("crates/core/src/x.rs".to_string(), src);
        Index::build(std::slice::from_ref(&file))
    }

    fn fn_named<'a>(idx: &'a Index, name: &str) -> &'a FnDef {
        idx.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` not indexed"))
    }

    #[test]
    fn indexes_methods_with_owner_and_free_fns() {
        let idx = index_of(
            "pub struct Q { items: Vec<u64> }\n\
             impl Q {\n  pub fn pop(&mut self) -> u64 { helper(1) }\n}\n\
             fn helper(n: u64) -> u64 { n }\n",
        );
        assert_eq!(fn_named(&idx, "pop").owner.as_deref(), Some("Q"));
        assert_eq!(fn_named(&idx, "helper").owner, None);
        let s = &idx.structs[0];
        assert_eq!(s.name, "Q");
        assert_eq!(s.fields, vec![("items".to_string(), "Vec".to_string())]);
    }

    #[test]
    fn trait_impl_owner_is_the_type_after_for() {
        let idx = index_of(
            "impl SlotFrontier for Sharded<'_> {\n  fn pop_ready(&mut self) -> u64 { 0 }\n}\n",
        );
        assert_eq!(
            fn_named(&idx, "pop_ready").owner.as_deref(),
            Some("Sharded")
        );
    }

    #[test]
    fn records_panic_alloc_and_index_facts() {
        let idx = index_of(
            "fn f(xs: &[u64]) -> u64 {\n\
               let v: Vec<u64> = Vec::new();\n\
               let s = format!(\"x\");\n\
               let _ = (v, s);\n\
               xs.first().unwrap();\n\
               xs[0]\n\
             }\n",
        );
        let f = fn_named(&idx, "f");
        assert_eq!(f.panics.len(), 1, "{:?}", f.panics);
        assert_eq!(f.panics[0].what, ".unwrap()");
        assert_eq!(f.allocs.len(), 2, "{:?}", f.allocs);
        assert_eq!(f.indexing.len(), 1, "{:?}", f.indexing);
    }

    #[test]
    fn attribute_and_type_brackets_are_not_indexing() {
        let idx = index_of(
            "#[derive(Debug)]\nstruct S;\n\
             fn f() -> [u8; 2] {\n  let a = [1u8, 2];\n  a\n}\n",
        );
        assert!(fn_named(&idx, "f").indexing.is_empty());
    }

    #[test]
    fn receiver_classification_tiers() {
        let idx = index_of(
            "struct E { q: Q }\nstruct Q;\n\
             impl E {\n\
               fn run(&mut self, f: &mut F) {\n\
                 self.step();\n\
                 self.q.pop();\n\
                 let w: Q = mk();\n\
                 w.pop();\n\
                 f.advance();\n\
                 Q::reset();\n\
               }\n\
             }\nfn mk() -> Q { Q }\n",
        );
        let run = fn_named(&idx, "run");
        let recv_of = |n: &str| {
            &run.calls
                .iter()
                .find(|c| c.name == n)
                .unwrap_or_else(|| panic!("call `{n}` not recorded"))
                .recv
        };
        assert!(matches!(recv_of("step"), Recv::SelfPath(f) if f.is_empty()));
        assert!(matches!(recv_of("pop"), Recv::SelfPath(f) if f == &["q".to_string()]));
        assert!(matches!(recv_of("advance"), Recv::Local(t, _) if t == "F"));
        assert!(matches!(recv_of("reset"), Recv::Path(q) if q == "Q"));
        assert!(matches!(recv_of("mk"), Recv::Free));
        // The hinted `w.pop()` resolves through the local's type.
        assert!(run
            .calls
            .iter()
            .any(|c| c.name == "pop" && matches!(&c.recv, Recv::Local(t, _) if t == "Q")));
    }

    #[test]
    fn test_code_is_never_indexed() {
        let idx = index_of(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests {\n  fn ghost() { panic!(\"x\") }\n}\n",
        );
        assert!(idx.fns.iter().any(|f| f.name == "live"));
        assert!(!idx.fns.iter().any(|f| f.name == "ghost"));
    }

    #[test]
    fn root_markers_attach_and_misattach() {
        let idx = index_of(
            "// lint:root(panic-free, alloc-free)\n\
             fn entry() {}\n\
             // lint:root(panic-free)\n\
             struct NotAFn;\n\
             // lint:root(loop-free)\n\
             fn other() {}\n",
        );
        assert_eq!(
            fn_named(&idx, "entry").roots,
            ROOT_PANIC_FREE | ROOT_ALLOC_FREE
        );
        assert_eq!(fn_named(&idx, "other").roots, 0);
        assert_eq!(idx.findings.len(), 2, "{:?}", idx.findings);
        assert!(idx.findings.iter().all(|f| f.lint == BAD_ROOT));
        assert_eq!(idx.roots.iter().filter(|r| r.target.is_some()).count(), 1);
    }

    #[test]
    fn enum_bodies_produce_no_phantom_calls() {
        let idx = index_of(
            "enum Ev { Fetched(u64), Done { at: u64 } }\n\
             fn f() { let _ = Ev::Fetched(1); }\n",
        );
        // `Ev::Fetched(1)` in an expression *is* recorded (harmless
        // path call); the declaration itself is not.
        assert_eq!(idx.fns.len(), 1);
        assert!(fn_named(&idx, "f")
            .calls
            .iter()
            .all(|c| matches!(&c.recv, Recv::Path(q) if q == "Ev")));
    }
}
