//! CLI for `mochi-lint`.
//!
//! ```text
//! cargo run -p mochi-lint -- --root . [--allowlist lint-allow.json]
//!     [--write-allowlist]
//! ```
//!
//! Exit codes:
//! * 0 — clean: no finding beyond the allowlist, no stale allowlist entry
//! * 1 — findings (any rule of the registry but MOCHI010)
//! * 2 — usage or I/O error
//! * 3 — no findings, but stale `lint-allow.json` entries (MOCHI010:
//!   frozen debt that has been paid down must be pruned)

use std::path::PathBuf;
use std::process::ExitCode;

use mochi_lint::allowlist::Allowlist;
use mochi_lint::report;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allowlist_path: Option<PathBuf> = None;
    let mut write_allowlist = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a path"),
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist_path = Some(PathBuf::from(v)),
                None => return usage("--allowlist needs a path"),
            },
            "--write-allowlist" => write_allowlist = true,
            "--help" | "-h" => {
                eprintln!("mochi-lint --root <workspace> [--allowlist <json>] [--write-allowlist]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    let allowlist_path = allowlist_path.unwrap_or_else(|| root.join("lint-allow.json"));
    let allowlist = match mochi_lint::load_allowlist(&allowlist_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mochi-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let lint = match mochi_lint::run(&root, &allowlist) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mochi-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if write_allowlist {
        // Freeze what is there now; reasons carry over.
        let frozen = Allowlist { sections: lint.counts.clone(), ..allowlist };
        if let Err(e) = std::fs::write(&allowlist_path, frozen.to_json()) {
            eprintln!("mochi-lint: writing {allowlist_path:?}: {e}");
            return ExitCode::from(2);
        }
        let per_section: Vec<String> = lint
            .counts
            .iter()
            .map(|(section, entries)| format!("{section} {}", entries.values().sum::<usize>()))
            .collect();
        println!("wrote allowances to {}: {}", allowlist_path.display(), per_section.join(", "));
    }

    print!("{}", report::render_text(&lint));

    if !lint.is_clean() {
        return ExitCode::FAILURE;
    }
    if !lint.stale_entries.is_empty() {
        eprintln!(
            "mochi-lint: {} stale allowlist entr{} — prune lint-allow.json",
            lint.stale_entries.len(),
            if lint.stale_entries.len() == 1 { "y" } else { "ies" }
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

fn usage(message: &str) -> ExitCode {
    eprintln!("mochi-lint: {message} (see --help)");
    ExitCode::from(2)
}
