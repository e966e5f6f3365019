//! `pacga-audit`: the repo's in-tree static analyzer (DESIGN.md §11).
//!
//! Seven named rules, each individually suppressible with an inline
//! waiver comment (`pacga:allow(A1)` on the offending line or the line
//! above):
//!
//! * **A1** — every `Ordering::` use carries an `// ord:` justification
//!   comment; `Ordering::SeqCst` additionally requires the file to be
//!   on the [`seqcst_allow.txt`](AuditConfig::default) allowlist.
//! * **A2** — no `.unwrap()` / `.expect(...)` / `panic!` / `[i]`
//!   indexing in `crates/service/src` non-test code: the daemon must
//!   degrade, not die.
//! * **A3** — `Schedule`'s CSR internals (`bucket_tasks`,
//!   `bucket_start`, `pos`) are never touched outside
//!   `crates/scheduling`.
//! * **A4** — every raw `fs::write` / `File::create` under
//!   `crates/service` and `crates/core/src/checkpoint.rs` goes through
//!   the atomic tmp+rename helper (`pa_cga_core::fsx`) instead.
//! * **A5** — no `std::sync::Mutex` outside `vendor/` (the vendored
//!   `parking_lot` stand-in is the only lock supplier).
//! * **A6** — no `std::env::set_var` / `remove_var` anywhere in
//!   `crates/` or the root `tests/`, tests included: the environment is
//!   process-global, so a test that mutates it races every sibling test
//!   that reads it. Env readers take the value as an argument instead.
//! * **A7** — every `pub` fn, struct, enum, trait, type, const or static
//!   in `crates/*/src` non-test code has a use outside its own file's
//!   `#[cfg(test)]` code. The only cross-file rule: it indexes every
//!   identifier in the tree plus `examples/` and `perfbench/src`;
//!   comments, strings and `use` paths are not uses.
//!
//! The analyzer is dependency-free by design: a lightweight hand-rolled
//! lexer (comments, nested block comments, raw/byte strings, char
//! literals vs lifetimes) feeds token-sequence matchers. It is a
//! tripwire, not a compiler — rules favour zero false positives on this
//! tree over exhaustive Rust coverage.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The named audit rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Undocumented atomic ordering / unlisted `SeqCst`.
    A1,
    /// Panic path in daemon code.
    A2,
    /// `Schedule` internals touched outside `crates/scheduling`.
    A3,
    /// Raw file write outside the atomic helper.
    A4,
    /// `std::sync::Mutex` outside `vendor/`.
    A5,
    /// Process-environment mutation under `crates/` or `tests/`.
    A6,
    /// `pub` item in `crates/*/src` that nothing uses.
    A7,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 7] =
        [Rule::A1, Rule::A2, Rule::A3, Rule::A4, Rule::A5, Rule::A6, Rule::A7];

    /// The rule's name as spelled in reports and waivers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
            Rule::A4 => "A4",
            Rule::A5 => "A5",
            Rule::A6 => "A6",
            Rule::A7 => "A7",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::A1 => "atomic Ordering without an `// ord:` justification (SeqCst allowlisted)",
            Rule::A2 => "unwrap/expect/panic!/indexing in crates/service/src non-test code",
            Rule::A3 => {
                "Schedule internals (bucket_tasks/bucket_start/pos) outside crates/scheduling"
            }
            Rule::A4 => "raw fs::write/File::create outside the pa_cga_core::fsx atomic helper",
            Rule::A5 => "std::sync::Mutex outside vendor/ (use the vendored parking_lot)",
            Rule::A6 => {
                "std::env::set_var/remove_var anywhere in crates/ or tests/ (inject the value)"
            }
            Rule::A7 => {
                "pub item in crates/*/src used nowhere outside its own file's tests (delete it)"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Repo-relative files permitted to use `Ordering::SeqCst`.
    pub seqcst_allow: HashSet<String>,
}

impl Default for AuditConfig {
    /// Loads the baked-in allowlist (`src/seqcst_allow.txt`).
    fn default() -> Self {
        let mut seqcst_allow = HashSet::new();
        for line in include_str!("seqcst_allow.txt").lines() {
            let entry = line.split('#').next().unwrap_or("").trim();
            if !entry.is_empty() {
                seqcst_allow.insert(entry.to_string());
            }
        }
        AuditConfig { seqcst_allow }
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num,
    Punct(char),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

impl Token {
    fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }
}

/// Lexed file: token stream plus per-line comment text.
struct Lexed {
    tokens: Vec<Token>,
    /// Concatenated comment text per 1-based line.
    comments: HashMap<usize, String>,
}

fn push_comment(comments: &mut HashMap<usize, String>, line: usize, text: &str) {
    let slot = comments.entry(line).or_default();
    slot.push(' ');
    slot.push_str(text);
}

/// Tokenizes Rust source, skipping string/char literal *contents* and
/// recording comments. Good enough for token-sequence rules; not a full
/// Rust lexer.
fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut comments: HashMap<usize, String> = HashMap::new();
    let mut i = 0;
    let mut line = 1;
    let n = chars.len();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i + 2;
                let mut end = start;
                while end < n && chars[end] != '\n' {
                    end += 1;
                }
                let text: String = chars[start..end].iter().collect();
                push_comment(&mut comments, line, text.trim());
                i = end;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Nested block comment; text attributed per line.
                let mut depth = 1;
                let mut j = i + 2;
                let mut seg = String::new();
                while j < n && depth > 0 {
                    if chars[j] == '\n' {
                        push_comment(&mut comments, line, seg.trim());
                        seg.clear();
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        seg.push(chars[j]);
                        j += 1;
                    }
                }
                push_comment(&mut comments, line, seg.trim());
                i = j;
            }
            '"' => i = skip_string(&chars, i, &mut line),
            '\'' => {
                // Lifetime vs char literal: a lifetime is `'` + ident
                // start with no closing quote right after one char.
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                let is_lifetime = matches!(next, Some(c2) if c2.is_alphabetic() || c2 == '_')
                    && after != Some('\'');
                if is_lifetime {
                    i += 2;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                } else {
                    // Char literal: skip escapes until the closing quote.
                    let mut j = i + 1;
                    while j < n {
                        match chars[j] {
                            '\\' => j += 2,
                            '\'' => {
                                j += 1;
                                break;
                            }
                            '\n' => break, // malformed; resync
                            _ => j += 1,
                        }
                    }
                    i = j;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // Raw / byte string prefixes glue onto the quote.
                let raw = matches!(word.as_str(), "r" | "br")
                    && matches!(chars.get(i), Some('"') | Some('#'));
                let byte = word == "b" && chars.get(i) == Some(&'"');
                if raw {
                    i = skip_raw_string(&chars, i, &mut line);
                } else if byte {
                    i = skip_string(&chars, i, &mut line);
                } else {
                    tokens.push(Token { tok: Tok::Ident(word), line });
                }
            }
            c if c.is_ascii_digit() => {
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token { tok: Tok::Num, line });
            }
            c => {
                tokens.push(Token { tok: Tok::Punct(c), line });
                i += 1;
            }
        }
    }
    Lexed { tokens, comments }
}

/// Skips a `"..."` literal starting at the opening quote; returns the
/// index past the closing quote.
fn skip_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips `r"..."` / `r#"..."#` starting at the char after the `r`
/// prefix; returns the index past the closing delimiter.
fn skip_raw_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut i = start;
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return i; // malformed; resync
    }
    i += 1;
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"'
            && chars[i + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

// ---------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------

/// Token-index ranges covered by `#[cfg(test)] mod ... { ... }` (the
/// braces included), so src-file unit tests escape the non-test rules.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).and_then(Token::ident) == Some("cfg")
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            // Scan the cfg(...) group for the `test` predicate.
            let mut depth = 1;
            let mut j = i + 4;
            let mut has_test = false;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('(') {
                    depth += 1;
                } else if tokens[j].is_punct(')') {
                    depth -= 1;
                } else if tokens[j].ident() == Some("test") {
                    has_test = true;
                }
                j += 1;
            }
            // Expect `] mod name {` (possibly with a visibility prefix).
            let mut k = j;
            if tokens.get(k).is_some_and(|t| t.is_punct(']')) {
                k += 1;
            }
            while tokens.get(k).and_then(Token::ident).is_some_and(|s| s != "mod") {
                k += 1;
                if k > j + 6 {
                    break;
                }
            }
            if has_test && tokens.get(k).and_then(Token::ident) == Some("mod") {
                // Find the opening brace, then its match.
                let mut b = k;
                while b < tokens.len() && !tokens[b].is_punct('{') {
                    b += 1;
                }
                let mut braces = 0;
                let mut e = b;
                while e < tokens.len() {
                    if tokens[e].is_punct('{') {
                        braces += 1;
                    } else if tokens[e].is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    e += 1;
                }
                regions.push((i, e));
                i = e + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx <= e)
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/// Rust keywords that never name an indexable value (rule A2's
/// index-expression heuristic).
const KEYWORDS: [&str; 20] = [
    "if", "else", "match", "return", "in", "mut", "let", "ref", "move", "break", "continue",
    "loop", "while", "for", "as", "where", "impl", "dyn", "fn", "unsafe",
];

struct FileCx<'a> {
    rel_path: &'a str,
    tokens: &'a [Token],
    comments: &'a HashMap<usize, String>,
    /// Lines holding at least one token.
    code_lines: HashSet<usize>,
    /// Lines holding an `Ordering::` occurrence.
    ordering_lines: HashSet<usize>,
    test_regions: &'a [(usize, usize)],
    /// Raw source lines (for the statement-continuation heuristic).
    lines: Vec<&'a str>,
}

impl FileCx<'_> {
    fn comment_has(&self, line: usize, needle: &str) -> bool {
        self.comments.get(&line).is_some_and(|c| c.contains(needle))
    }

    /// True when a `pacga:allow(RULE)` waiver covers `line` (waivers
    /// apply to their own line and the next).
    fn waived(&self, line: usize, rule: Rule) -> bool {
        waived(self.comments, line, rule)
    }

    /// True when the contiguous comment block attached to `line`
    /// contains an `ord:` justification. The walk climbs through
    /// comment-only lines, other `Ordering::` lines, and unterminated
    /// statement-continuation lines.
    fn has_ord_justification(&self, line: usize) -> bool {
        if self.comment_has(line, "ord:") {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let has_code = self.code_lines.contains(&l);
            if self.comment_has(l, "ord:") {
                return true;
            }
            if !has_code {
                if self.comments.contains_key(&l) {
                    continue; // comment-only line: keep climbing
                }
                return false; // blank line ends the block
            }
            if self.ordering_lines.contains(&l) {
                continue; // sibling atomic op under the same comment
            }
            // A code line that does not terminate a statement is part
            // of the same multi-line expression; keep climbing.
            let text = self.lines.get(l - 1).map(|s| strip_line_comment(s)).unwrap_or_default();
            let trimmed = text.trim_end();
            if trimmed.ends_with(';') || trimmed.ends_with('{') || trimmed.ends_with('}') {
                return false;
            }
        }
        false
    }
}

/// True when a `pacga:allow(RULE)` comment sits on `line` or the line
/// above.
fn waived(comments: &HashMap<usize, String>, line: usize, rule: Rule) -> bool {
    let tag = format!("pacga:allow({})", rule.name());
    let has = |l: usize| comments.get(&l).is_some_and(|c| c.contains(&tag));
    has(line) || (line > 1 && has(line - 1))
}

/// Drops a trailing `// ...` comment (best-effort: ignores `//` inside
/// strings, which is fine for an end-of-line heuristic).
fn strip_line_comment(s: &str) -> &str {
    match s.find("//") {
        Some(i) => &s[..i],
        None => s,
    }
}

fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// One lexed file with its `#[cfg(test)] mod` regions.
struct Parsed<'a> {
    rel_path: &'a str,
    source: &'a str,
    lexed: Lexed,
    test_regions: Vec<(usize, usize)>,
}

impl<'a> Parsed<'a> {
    fn new(rel_path: &'a str, source: &'a str) -> Self {
        let lexed = lex(source);
        let test_regions = test_regions(&lexed.tokens);
        Parsed { rel_path, source, lexed, test_regions }
    }
}

/// Analyzes one file's source with the per-file rules A1–A6.
/// `rel_path` is the repo-relative path (forward slashes) — it selects
/// which rules apply and is echoed in the findings, so fixture tests can
/// assert exact `file:line rule` output with virtual paths. The
/// cross-file rule A7 needs the whole tree: see [`analyze_sources`].
pub fn analyze_source(rel_path: &str, source: &str, cfg: &AuditConfig) -> Vec<Violation> {
    per_file_rules(&Parsed::new(rel_path, source), cfg)
}

/// Analyzes a whole tree given as `(repo-relative path, source)` pairs:
/// A1–A6 on each file of the audited tree (`crates/`, `src/`, `tests/`)
/// and A7 across all of them. Files under `examples/` and `perfbench/`
/// only count as users for A7. Findings are sorted by (file, line, rule).
pub fn analyze_sources(files: &[(String, String)], cfg: &AuditConfig) -> Vec<Violation> {
    let parsed: Vec<Parsed<'_>> =
        files.iter().map(|(rel, source)| Parsed::new(rel, source)).collect();
    let mut violations: Vec<Violation> = parsed
        .iter()
        .filter(|p| !is_user_only(p.rel_path))
        .flat_map(|p| per_file_rules(p, cfg))
        .collect();
    rule_a7(&parsed, &mut violations);
    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    violations
}

fn per_file_rules(p: &Parsed<'_>, cfg: &AuditConfig) -> Vec<Violation> {
    let rel_path = p.rel_path;
    let tokens = &p.lexed.tokens;
    let mut ordering_lines = HashSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.ident() == Some("Ordering") && is_path_sep(tokens, i + 1) {
            ordering_lines.insert(t.line);
        }
    }
    let cx = FileCx {
        rel_path,
        tokens,
        comments: &p.lexed.comments,
        code_lines: tokens.iter().map(|t| t.line).collect(),
        ordering_lines,
        test_regions: &p.test_regions,
        lines: p.source.lines().collect(),
    };

    let in_test_dir = ["/tests/", "/benches/", "/examples/"].iter().any(|d| rel_path.contains(d))
        || rel_path.starts_with("tests/");

    let mut out = Vec::new();
    if !in_test_dir {
        rule_a1(&cx, cfg, &mut out);
    }
    if rel_path.starts_with("crates/service/src/") {
        rule_a2(&cx, &mut out);
    }
    if !rel_path.starts_with("crates/scheduling/") {
        rule_a3(&cx, &mut out);
    }
    let a4_scope =
        rel_path.starts_with("crates/service/") || rel_path == "crates/core/src/checkpoint.rs";
    if a4_scope && !in_test_dir {
        rule_a4(&cx, &mut out);
    }
    rule_a5(&cx, &mut out);
    if rel_path.starts_with("crates/") || rel_path.starts_with("tests/") {
        rule_a6(&cx, &mut out);
    }

    out.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    out
}

fn rule_a1(cx: &FileCx<'_>, cfg: &AuditConfig, out: &mut Vec<Violation>) {
    let tokens = cx.tokens;
    for i in 0..tokens.len() {
        if tokens[i].ident() != Some("Ordering") || !is_path_sep(tokens, i + 1) {
            continue;
        }
        let Some(which) = tokens.get(i + 3).and_then(Token::ident) else { continue };
        if in_regions(cx.test_regions, i) {
            continue;
        }
        let line = tokens[i].line;
        if which == "SeqCst"
            && !cfg.seqcst_allow.contains(cx.rel_path)
            && !cx.waived(line, Rule::A1)
        {
            out.push(Violation {
                file: cx.rel_path.to_string(),
                line,
                rule: Rule::A1,
                message:
                    "Ordering::SeqCst outside the allowlist (crates/audit/src/seqcst_allow.txt); \
                          downgrade or allowlist with a protocol justification"
                        .into(),
            });
            continue;
        }
        if !cx.has_ord_justification(line) && !cx.waived(line, Rule::A1) {
            out.push(Violation {
                file: cx.rel_path.to_string(),
                line,
                rule: Rule::A1,
                message: format!("Ordering::{which} without an `// ord:` justification comment"),
            });
        }
    }
}

fn rule_a2(cx: &FileCx<'_>, out: &mut Vec<Violation>) {
    let tokens = cx.tokens;
    let mut push = |line: usize, message: String| {
        if !cx.waived(line, Rule::A2) {
            out.push(Violation { file: cx.rel_path.to_string(), line, rule: Rule::A2, message });
        }
    };
    for i in 0..tokens.len() {
        if in_regions(cx.test_regions, i) {
            continue;
        }
        let line = tokens[i].line;
        match tokens[i].ident() {
            Some("unwrap")
                if i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')) =>
            {
                push(line, "`.unwrap()` in daemon code; return a typed error or degrade".into());
            }
            Some("expect")
                if i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                push(line, "`.expect(..)` in daemon code; return a typed error or degrade".into());
            }
            Some("panic") if tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) => {
                push(line, "`panic!` in daemon code; return a typed error or degrade".into());
            }
            _ => {}
        }
        // Index expression: `[` after a value-producing token.
        if tokens[i].is_punct('[') && i > 0 {
            let prev = &tokens[i - 1];
            let indexes = match &prev.tok {
                Tok::Ident(id) => !KEYWORDS.contains(&id.as_str()),
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
                _ => false,
            };
            if indexes {
                push(
                    line,
                    "`[..]` indexing in daemon code; use `.get(..)` and handle the miss".into(),
                );
            }
        }
    }
}

fn rule_a3(cx: &FileCx<'_>, out: &mut Vec<Violation>) {
    let tokens = cx.tokens;
    // `.pos` is only meaningful where `Schedule` itself is in scope;
    // without the gate every hand-rolled parser's `self.pos` would trip.
    let mentions_schedule = tokens.iter().any(|t| t.ident() == Some("Schedule"));
    for i in 1..tokens.len() {
        let Some(field) = tokens[i].ident() else { continue };
        let guarded = match field {
            "bucket_tasks" | "bucket_start" => true,
            "pos" => mentions_schedule,
            _ => false,
        };
        if !guarded || !tokens[i - 1].is_punct('.') {
            continue;
        }
        // A call `.pos(..)` is a method, not the field.
        if field == "pos" && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let line = tokens[i].line;
        if !cx.waived(line, Rule::A3) {
            out.push(Violation {
                file: cx.rel_path.to_string(),
                line,
                rule: Rule::A3,
                message: format!("Schedule internal `.{field}` touched outside crates/scheduling"),
            });
        }
    }
}

fn rule_a4(cx: &FileCx<'_>, out: &mut Vec<Violation>) {
    let tokens = cx.tokens;
    for i in 0..tokens.len() {
        if in_regions(cx.test_regions, i) {
            continue;
        }
        let hit = (tokens[i].ident() == Some("fs")
            && is_path_sep(tokens, i + 1)
            && tokens.get(i + 3).and_then(Token::ident) == Some("write"))
            || (tokens[i].ident() == Some("File")
                && is_path_sep(tokens, i + 1)
                && tokens.get(i + 3).and_then(Token::ident) == Some("create"));
        if !hit {
            continue;
        }
        let line = tokens[i].line;
        if !cx.waived(line, Rule::A4) {
            out.push(Violation {
                file: cx.rel_path.to_string(),
                line,
                rule: Rule::A4,
                message: "raw file write; route through pa_cga_core::fsx::atomic_write* \
                          (tmp + fsync + rename)"
                    .into(),
            });
        }
    }
}

fn rule_a5(cx: &FileCx<'_>, out: &mut Vec<Violation>) {
    let tokens = cx.tokens;
    let flag = |line: usize, out: &mut Vec<Violation>| {
        if !cx.waived(line, Rule::A5) {
            out.push(Violation {
                file: cx.rel_path.to_string(),
                line,
                rule: Rule::A5,
                message: "std::sync::Mutex outside vendor/; use the vendored parking_lot \
                          (non-poisoning) instead"
                    .into(),
            });
        }
    };
    for i in 0..tokens.len() {
        if tokens[i].ident() != Some("std")
            || !is_path_sep(tokens, i + 1)
            || tokens.get(i + 3).and_then(Token::ident) != Some("sync")
            || !is_path_sep(tokens, i + 4)
        {
            continue;
        }
        match tokens.get(i + 6).map(|t| &t.tok) {
            Some(Tok::Ident(id)) if id == "Mutex" => flag(tokens[i].line, out),
            Some(Tok::Punct('{')) => {
                // Brace import: scan the group for Mutex.
                let mut j = i + 7;
                let mut depth = 1;
                while j < tokens.len() && depth > 0 {
                    if tokens[j].is_punct('{') {
                        depth += 1;
                    } else if tokens[j].is_punct('}') {
                        depth -= 1;
                    } else if tokens[j].ident() == Some("Mutex") {
                        flag(tokens[j].line, out);
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
}

fn rule_a6(cx: &FileCx<'_>, out: &mut Vec<Violation>) {
    let tokens = cx.tokens;
    let mutates = |t: &Token| matches!(t.ident(), Some("set_var" | "remove_var"));
    let mut flag = |t: &Token| {
        if !cx.waived(t.line, Rule::A6) {
            out.push(Violation {
                file: cx.rel_path.to_string(),
                line: t.line,
                rule: Rule::A6,
                message: format!(
                    "env::{} mutates the process-global environment; pass the value in",
                    t.ident().unwrap_or("")
                ),
            });
        }
    };
    for i in 0..tokens.len() {
        if tokens[i].ident() != Some("env") || !is_path_sep(tokens, i + 1) {
            continue;
        }
        match tokens.get(i + 3) {
            Some(t) if mutates(t) => flag(t),
            Some(t) if t.is_punct('{') => {
                // Brace import: scan the group.
                let mut j = i + 4;
                let mut depth = 1;
                while j < tokens.len() && depth > 0 {
                    if tokens[j].is_punct('{') {
                        depth += 1;
                    } else if tokens[j].is_punct('}') {
                        depth -= 1;
                    } else if mutates(&tokens[j]) {
                        flag(&tokens[j]);
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// A7: the cross-file rule
// ---------------------------------------------------------------------

/// Keywords whose next identifier names the item being defined; that
/// identifier is a definition, not a use.
const ITEM_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod"];

/// Files that count as A7 users but are not audited themselves.
fn is_user_only(rel_path: &str) -> bool {
    rel_path.starts_with("examples/") || rel_path.starts_with("perfbench/")
}

/// `crates/<name>/src/...`: where A7 looks for dead `pub` items.
fn in_crate_src(rel_path: &str) -> bool {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// Token-index ranges of `use …;` items (re-exports included).
fn use_items(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut items = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() == Some("use") {
            let end = (i..tokens.len()).find(|&j| tokens[j].is_punct(';')).unwrap_or(tokens.len());
            items.push((i, end));
            i = end;
        }
        i += 1;
    }
    items
}

/// Counts the identifier tokens of `p` that are uses, skipping
/// definitions and import paths. `keep` selects the token indices
/// counted. The source of a `use … as` rename counts: its uses go by
/// the other name.
fn count_uses(p: &Parsed<'_>, keep: impl Fn(usize) -> bool, counts: &mut HashMap<String, usize>) {
    let tokens = &p.lexed.tokens;
    let imports = use_items(tokens);
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let defined = i > 0 && tokens[i - 1].ident().is_some_and(|k| ITEM_KEYWORDS.contains(&k));
        let imported =
            in_regions(&imports, i) && tokens.get(i + 1).and_then(Token::ident) != Some("as");
        if !defined && !imported && keep(i) {
            *counts.entry(name.to_string()).or_default() += 1;
        }
    }
}

/// True when one of the attributes right before token `i` is exactly
/// `#[cfg(test)]`.
fn has_cfg_test_attr(tokens: &[Token], mut i: usize) -> bool {
    while i > 0 && tokens[i - 1].is_punct(']') {
        let Some(open) = (0..i - 1).rev().find(|&j| tokens[j].is_punct('[')) else {
            return false;
        };
        if matches!(&tokens[open + 1..i - 1], [c, l, t, r] if c.ident() == Some("cfg")
            && l.is_punct('(') && t.ident() == Some("test") && r.is_punct(')'))
        {
            return true;
        }
        i = open.saturating_sub(1); // the attribute's `#`
    }
    false
}

/// The `pub` items defined in the non-test code of `p`: `(token index
/// of the name, kind)`. Restricted visibilities (`pub(crate)`, …) are
/// left to rustc's dead-code lint.
fn pub_items(p: &Parsed<'_>) -> Vec<(usize, &'static str)> {
    let tokens = &p.lexed.tokens;
    let ident = |j: usize| tokens.get(j).and_then(Token::ident);
    let mut items = Vec::new();
    for i in 0..tokens.len() {
        if ident(i) != Some("pub") || tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let mut j = i + 1;
        while matches!(ident(j), Some("unsafe" | "async" | "extern"))
            || (ident(j) == Some("const") && matches!(ident(j + 1), Some("fn" | "unsafe")))
        {
            j += 1;
        }
        let Some(&kind) = ident(j).and_then(|k| ITEM_KEYWORDS.iter().find(|&&w| w == k)) else {
            continue;
        };
        if kind == "mod" {
            continue;
        }
        if kind == "static" && ident(j + 1) == Some("mut") {
            j += 1;
        }
        if ident(j + 1).is_none() || in_regions(&p.test_regions, i) || has_cfg_test_attr(tokens, i)
        {
            continue;
        }
        items.push((j + 1, kind));
    }
    items
}

/// A7: a `pub` item in `crates/*/src` non-test code whose name is used
/// nowhere but in its own file's `#[cfg(test)]` code. Matching is by
/// name over every file, so the rule can miss a dead item that shares
/// a name with a used one, but never flags a used name.
fn rule_a7(parsed: &[Parsed<'_>], out: &mut Vec<Violation>) {
    let mut uses = HashMap::new();
    for p in parsed {
        count_uses(p, |_| true, &mut uses);
    }
    for p in parsed.iter().filter(|p| in_crate_src(p.rel_path)) {
        let mut own_test_uses = HashMap::new();
        count_uses(p, |i| in_regions(&p.test_regions, i), &mut own_test_uses);
        for (i, kind) in pub_items(p) {
            let token = &p.lexed.tokens[i];
            let name = token.ident().unwrap_or("");
            let outside = uses.get(name).copied().unwrap_or(0)
                - own_test_uses.get(name).copied().unwrap_or(0);
            if outside == 0 && !waived(&p.lexed.comments, token.line, Rule::A7) {
                out.push(Violation {
                    file: p.rel_path.to_string(),
                    line: token.line,
                    rule: Rule::A7,
                    message: format!(
                        "pub {kind} `{name}` is used nowhere outside its definition and its \
                         file's tests; delete it or waive it naming its outside user"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------

/// Collects the `.rs` files the audit reads: the audited tree
/// (`<root>/crates`, `<root>/src`, `<root>/tests`) plus `<root>/examples`
/// and `<root>/perfbench/src`, which only count as A7 users. `vendor/`,
/// `target/` and the analyzer's own seeded-violation fixtures are
/// skipped. Paths come back sorted.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "perfbench/src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the audit over a checkout rooted at `root`: returns the number
/// of files read and the findings, sorted by (file, line, rule).
pub fn audit_tree(root: &Path, cfg: &AuditConfig) -> std::io::Result<(usize, Vec<Violation>)> {
    let mut sources = Vec::new();
    for path in collect_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok((sources.len(), analyze_sources(&sources, cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(path: &str, src: &str) -> Vec<Violation> {
        analyze_source(path, src, &AuditConfig::default())
    }

    #[test]
    fn lexer_skips_strings_chars_and_lifetimes() {
        let src = r##"
fn f<'a>(x: &'a str) -> char {
    let _s = "Ordering::SeqCst .unwrap() std::sync::Mutex";
    let _r = r#"panic!("no")"#;
    let _b = b"bytes";
    '\''
}
"##;
        assert!(analyze("crates/service/src/x.rs", src).is_empty());
    }

    #[test]
    fn ord_comment_covers_consecutive_sites_and_continuations() {
        let src = "
fn f(a: &AtomicU64, b: &AtomicU64) {
    // ord: Relaxed — counters.
    a.store(1, Ordering::Relaxed);
    b.store(2, Ordering::Relaxed);
    let _x = a
        .load(Ordering::Relaxed);
}
";
        assert!(analyze("crates/x/src/l.rs", src).is_empty());
    }

    #[test]
    fn unjustified_ordering_is_flagged_and_waivable() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
        let v = analyze("crates/x/src/l.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::A1);
        let waived = "// pacga:allow(A1)\nfn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
        assert!(analyze("crates/x/src/l.rs", waived).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_a1_a2_a4() {
        let src = "
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1];
        let _ = v[0];
        x.store(1, Ordering::SeqCst);
        std::fs::write(\"f\", \"x\").unwrap();
    }
}
";
        assert!(analyze("crates/service/src/x.rs", src).is_empty());
    }

    #[test]
    fn a2_only_applies_to_service_src() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }\n";
        assert_eq!(analyze("crates/service/src/x.rs", src).len(), 1);
        assert!(analyze("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn a3_pos_gate_requires_schedule_in_scope() {
        let parser = "struct P { pos: usize }\nimpl P { fn f(&self) -> usize { self.pos } }\n";
        assert!(analyze("crates/service/src/json.rs", parser).is_empty());
        let leak = "fn f(s: &Schedule) -> &[u32] { &s.bucket_tasks }\n";
        let v = analyze("crates/core/src/x.rs", leak);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::A3);
    }

    #[test]
    fn a5_catches_brace_imports() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let v = analyze("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::A5);
        assert!(analyze("crates/core/src/x.rs", "use std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn a6_covers_tests_and_ignores_child_process_env() {
        let src = "#[cfg(test)]\nmod t { fn f() { std::env::set_var(\"K\", \"v\"); } }\n";
        let v = analyze("crates/x/src/l.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::A6);
        assert_eq!(analyze("tests/l.rs", src).len(), 1, "A6 covers the root tests/");
        assert!(analyze("vendor/x/src/l.rs", src).is_empty(), "A6 stays out of vendor/");
        let child = "fn f(c: &mut Command) { c.env(\"K\", \"v\").env_remove(\"J\"); }\n";
        assert!(analyze("crates/x/src/l.rs", child).is_empty());
    }

    #[test]
    fn violations_render_file_line_rule() {
        let v = Violation {
            file: "crates/x/src/l.rs".into(),
            line: 7,
            rule: Rule::A4,
            message: "m".into(),
        };
        assert_eq!(v.to_string(), "crates/x/src/l.rs:7 A4 m");
    }
}
