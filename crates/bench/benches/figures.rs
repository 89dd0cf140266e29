//! Prints the paper's figures as tab-separated rows, comment lines
//! starting with `#`: every figure, or only the one whose id is given.
//!
//! ```sh
//! cargo bench -p pipeleon-bench --bench figures          # all
//! cargo bench -p pipeleon-bench --bench figures -- fig09 # one
//! ```

use pipeleon_bench::FIGURES;

fn main() {
    // Cargo passes `--bench` to a `harness = false` target; flags are not
    // figure ids.
    let wanted = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|(id, _)| wanted.as_deref().is_none_or(|w| w == *id))
        .collect();
    if selected.is_empty() {
        let ids: Vec<_> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown figure `{}`; one of: {}",
            wanted.unwrap_or_default(),
            ids.join(" ")
        );
        std::process::exit(2);
    }
    for (id, tables) in selected {
        println!("# ================================================================");
        println!("# {id}: emulator-backed reproduction; compare shapes, not absolutes");
        println!("# ================================================================");
        for table in tables.iter() {
            print!("{}", table());
        }
    }
}
