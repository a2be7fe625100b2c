//! Figure 4 / Section 2.4: the direction-order routing search.
//!
//! Enumerates all 24 direction-order on-chip routing algorithms against
//! every switching permutation (the extreme points of the worst-case LP of
//! \[27\]) and prints the ranking, the worst-case load of the selected
//! (V−, U+, U−, V+) order, and the superposed mesh loads induced by the
//! paper's equation (1).

use anton_analysis::worstcase::{
    eq1_permutation, format_perm, max_mesh_load, mesh_link_loads, search,
};
use anton_core::chip::ChipLayout;
use anton_core::onchip::DirOrder;

fn main() {
    anton_bench::FlagSet::new("fig4_worstcase", "Figure 4: direction-order routing search").parse();
    let chip = ChipLayout::default();
    println!("## Section 2.4 / Figure 4 — direction-order routing search");
    println!();
    println!("Evaluating 24 direction orders x 265 switching permutations");
    println!("(derangements of the six external channel directions; both slices loaded).");
    println!();
    let results = search(&chip);
    println!("{:<22} {:>18}", "direction order", "worst-case load");
    for r in &results {
        let marker = if r.order == DirOrder::ANTON {
            "  <= selected (Anton 2)"
        } else {
            ""
        };
        println!(
            "{:<22} {:>14.2}{}",
            r.order.to_string(),
            r.worst_load,
            marker
        );
    }
    let best = &results[0];
    let anton = results
        .iter()
        .find(|r| r.order == DirOrder::ANTON)
        .expect("present");
    println!();
    println!(
        "Best worst-case load: {:.2} torus channels; Anton order achieves {:.2} (paper: 2.0).",
        best.worst_load, anton.worst_load
    );

    let eq1 = eq1_permutation();
    println!();
    println!("Equation (1) worst-case permutation: {}", format_perm(&eq1));
    println!(
        "Load under the Anton order: {:.2} (the order's worst case: {:.2})",
        max_mesh_load(&chip, DirOrder::ANTON, &eq1),
        anton.worst_load
    );
    println!();
    println!("Superposed mesh-channel loads under eq. (1), Anton order (Figure 4):");
    let mut loads: Vec<_> = mesh_link_loads(&chip, DirOrder::ANTON, &eq1)
        .into_iter()
        .collect();
    loads.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    for (link, load) in loads {
        println!("  {link}: {load:.1}");
    }
}
