//! `pacga-audit` — run the in-tree invariant analyzer over a checkout.
//!
//! Usage:
//!
//! ```text
//! pacga-audit [--root DIR] [--list-rules]
//! ```
//!
//! Walks `<root>/crates` and `<root>/src` (default root: the current
//! directory, or the enclosing workspace when run via `cargo run -p
//! pacga_audit`), prints one `file:line RULE message` per finding, and
//! exits 1 when any rule fires. See DESIGN.md §11 for the rules and the
//! `pacga:allow(RULE)` waiver syntax.

use std::path::PathBuf;
use std::process::ExitCode;

use pacga_audit::{audit_tree, AuditConfig, Rule};

fn usage() -> &'static str {
    "usage: pacga-audit [--root DIR] [--list-rules]\n\
     \n\
     Runs the repo's static invariant checks (rules A1-A6) over\n\
     <root>/crates, <root>/src and <root>/tests. Exits 1 on any violation."
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("pacga-audit: --root requires a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in Rule::ALL {
                    println!("{}  {}", rule.name(), rule.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pacga-audit: unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    // Default to the workspace root when invoked through cargo, else cwd.
    let root = root.unwrap_or_else(|| {
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map(|d| PathBuf::from(d).join("../.."))
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let cfg = AuditConfig::default();
    match audit_tree(&root, &cfg) {
        Ok((n_files, violations)) => {
            if violations.is_empty() {
                println!("pacga-audit: {n_files} files clean (rules A1-A6)");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    println!("{v}");
                }
                eprintln!(
                    "pacga-audit: {} violation(s) across {} file(s); see DESIGN.md §11 \
                     (waive a single site with `// pacga:allow(RULE)`)",
                    violations.len(),
                    n_files
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pacga-audit: cannot walk {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
