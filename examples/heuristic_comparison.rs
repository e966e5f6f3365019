//! Compare the six deterministic list heuristics across all 12 benchmark
//! instances — the paper's §4.2 context: heuristics are competitive on
//! near-homogeneous (`*lolo`) instances, far from it on heterogeneous ones.
//!
//! ```text
//! cargo run --release --example heuristic_comparison
//! ```

use pa_cga::heur::Heuristic;
use pa_cga::prelude::*;
use pa_cga::stats::Table;

fn main() {
    let mut header = vec!["instance".to_string()];
    header.extend(Heuristic::all().iter().map(|h| h.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for name in braun_instance_names() {
        let instance = braun_instance(name);
        let makespans: Vec<f64> =
            pa_cga::heur::cohort(&instance).iter().map(|s| s.makespan()).collect();
        let best = makespans.iter().copied().fold(f64::INFINITY, f64::min);
        let mut row = vec![name.to_string()];
        row.extend(makespans.iter().map(|&m| {
            let mark = if m == best { "*" } else { "" };
            format!("{m:.0}{mark}")
        }));
        table.row(&row);
    }

    println!("Best makespan per heuristic (* = row winner)\n");
    println!("{}", table.render());
    println!("Min-min / Sufferage dominating the immediate-mode heuristics");
    println!("on heterogeneous instances is the expected Braun et al. shape.");
}
