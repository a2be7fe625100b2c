//! The on-chip routing-algorithm search of Section 2.4.
//!
//! The ASIC should look like a perfect switch to its external torus
//! channels. The search evaluates every direction-order routing algorithm
//! against every possible switching demand and picks the order that
//! minimizes the worst-case load on any mesh channel. Following \[27\], the
//! worst case of the underlying linear program is attained at an extreme
//! point, and extreme points are permutation traffic patterns — so the
//! search is an exact enumeration: 24 direction orders × the permutations of
//! the six external channel directions (excluding U-turns, which minimal
//! routing cannot produce).
//!
//! The paper reports a common worst-case permutation for all orders
//! (equation (1)) and that routing V⁻, U⁺, U⁻, then V⁺ outperforms every
//! other direction order, with the most heavily loaded mesh channels
//! carrying two torus channels' worth of traffic (Figure 4).

use std::collections::HashMap;

use anton_core::chip::{ChanId, ChipLayout, LocalLink};
use anton_core::onchip::DirOrder;
use anton_core::topology::{Dim, Slice, TorusDir};

/// A switching permutation: `perm[i]` is the departing-channel direction
/// (canonical index) for traffic arriving on channel direction `i`.
///
/// "Arriving on channel `c`" means traveling in direction `c.opposite()`;
/// `perm[c] == c.opposite()` is therefore *through* traffic, and
/// `perm[c] == c` would be a U-turn, which minimal routing never produces.
pub type SwitchPerm = [usize; 6];

/// Equation (1) of the paper: the common worst-case permutation.
///
/// ```text
/// ( X+  X-  Y+  Y-  Z+  Z- )
/// ( Z-  X+  Y-  Z+  X-  Y+ )
/// ```
pub fn eq1_permutation() -> SwitchPerm {
    use anton_core::topology::Sign::{Minus, Plus};
    let d = |dim, sign| TorusDir::new(dim, sign).index();
    let mut perm = [0usize; 6];
    perm[d(Dim::X, Plus)] = d(Dim::Z, Minus);
    perm[d(Dim::X, Minus)] = d(Dim::X, Plus);
    perm[d(Dim::Y, Plus)] = d(Dim::Y, Minus);
    perm[d(Dim::Y, Minus)] = d(Dim::Z, Plus);
    perm[d(Dim::Z, Plus)] = d(Dim::X, Minus);
    perm[d(Dim::Z, Minus)] = d(Dim::Y, Plus);
    perm
}

/// Enumerates all switching permutations without U-turns (derangement-like:
/// `perm[c] != c`, since departing on the arrival channel reverses
/// direction).
pub fn all_switch_perms() -> Vec<SwitchPerm> {
    let mut out = Vec::new();
    let mut perm = [usize::MAX; 6];
    let mut used = [false; 6];
    fn rec(i: usize, perm: &mut SwitchPerm, used: &mut [bool; 6], out: &mut Vec<SwitchPerm>) {
        if i == 6 {
            out.push(*perm);
            return;
        }
        for c in 0..6 {
            if !used[c] && c != i {
                used[c] = true;
                perm[i] = c;
                rec(i + 1, perm, used, out);
                used[c] = false;
            }
        }
    }
    rec(0, &mut perm, &mut used, &mut out);
    out
}

/// The mesh-channel loads induced by one switching permutation under one
/// direction-order algorithm, assuming the two torus slices are
/// load-balanced (each arriving physical channel carries 1.0 units).
///
/// Through X traffic uses the skip channels (no mesh load); through Y/Z
/// traffic crosses a single router (no mesh links).
pub fn mesh_link_loads(
    chip: &ChipLayout,
    order: DirOrder,
    perm: &SwitchPerm,
) -> HashMap<LocalLink, f64> {
    let mut loads: HashMap<LocalLink, f64> = HashMap::new();
    for (src_idx, &dst_idx) in perm.iter().enumerate() {
        let src_dir = TorusDir::from_index(src_idx);
        let dst_dir = TorusDir::from_index(dst_idx);
        if dst_dir == src_dir.opposite() {
            // Through traffic: skip channel (X) or single router (Y/Z).
            continue;
        }
        for slice in Slice::ALL {
            let from = chip.chan_router(ChanId {
                dir: src_dir,
                slice,
            });
            let to = chip.chan_router(ChanId {
                dir: dst_dir,
                slice,
            });
            let mut cur = from;
            while let Some(d) = order.next_dir(cur, to) {
                *loads
                    .entry(LocalLink::Mesh { from: cur, dir: d })
                    .or_insert(0.0) += 1.0;
                cur = cur.step(d).expect("mesh route stays on chip");
            }
        }
    }
    loads
}

/// Maximum mesh-channel load of one `(order, permutation)` pair.
pub fn max_mesh_load(chip: &ChipLayout, order: DirOrder, perm: &SwitchPerm) -> f64 {
    mesh_link_loads(chip, order, perm)
        .values()
        .copied()
        .fold(0.0, f64::max)
}

/// Result of evaluating one direction order over all switching demands.
#[derive(Debug, Clone)]
pub struct OrderEvaluation {
    /// The direction order evaluated.
    pub order: DirOrder,
    /// Its worst-case maximum mesh-channel load.
    pub worst_load: f64,
    /// Every permutation attaining the worst case.
    pub worst_perms: Vec<SwitchPerm>,
}

/// Evaluates every direction-order algorithm over every switching
/// permutation; results are sorted best (lowest worst-case load) first.
pub fn search(chip: &ChipLayout) -> Vec<OrderEvaluation> {
    let perms = all_switch_perms();
    let mut results: Vec<OrderEvaluation> = DirOrder::all()
        .into_iter()
        .map(|order| {
            let mut worst_load = 0.0f64;
            let mut worst_perms = Vec::new();
            for perm in &perms {
                let load = max_mesh_load(chip, order, perm);
                if load > worst_load + 1e-9 {
                    worst_load = load;
                    worst_perms = vec![*perm];
                } else if (load - worst_load).abs() <= 1e-9 {
                    worst_perms.push(*perm);
                }
            }
            OrderEvaluation {
                order,
                worst_load,
                worst_perms,
            }
        })
        .collect();
    results.sort_by(|a, b| {
        a.worst_load
            .partial_cmp(&b.worst_load)
            .expect("loads are finite")
    });
    results
}

/// Pretty-prints a switching permutation in the paper's matrix style.
pub fn format_perm(perm: &SwitchPerm) -> String {
    let top: Vec<String> = (0..6)
        .map(|i| TorusDir::from_index(i).to_string())
        .collect();
    let bot: Vec<String> = perm
        .iter()
        .map(|&d| TorusDir::from_index(d).to_string())
        .collect();
    format!("({}) -> ({})", top.join(" "), bot.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_count_is_derangement_like() {
        // Permutations of 6 with no fixed point: D(6) = 265.
        assert_eq!(all_switch_perms().len(), 265);
    }

    #[test]
    fn eq1_has_no_fixed_points_and_two_throughs() {
        let p = eq1_permutation();
        let mut throughs = 0;
        for (i, &d) in p.iter().enumerate() {
            assert_ne!(i, d, "U-turn in eq. (1)");
            if TorusDir::from_index(d) == TorusDir::from_index(i).opposite() {
                throughs += 1;
            }
        }
        // X− → X+ and Y+ → Y− continue straight through the node.
        assert_eq!(throughs, 2, "eq. (1) routes X and Y through");
    }

    #[test]
    fn anton_order_worst_case_is_two_channels() {
        let chip = ChipLayout::default();
        let load = max_mesh_load(&chip, DirOrder::ANTON, &eq1_permutation());
        assert!(
            (load - 2.0).abs() < 1e-9,
            "eq. (1) under the Anton order should load 2.0 torus channels, got {load}"
        );
    }

    #[test]
    fn search_ranks_anton_first() {
        let chip = ChipLayout::default();
        let results = search(&chip);
        let best = &results[0];
        assert!(
            (best.worst_load - 2.0).abs() < 1e-9,
            "best worst-case load should be 2.0, got {}",
            best.worst_load
        );
        // The Anton order must be among the best performers.
        let anton = results.iter().find(|r| r.order == DirOrder::ANTON).unwrap();
        assert!(
            (anton.worst_load - best.worst_load).abs() < 1e-9,
            "Anton order worst case {} exceeds optimum {}",
            anton.worst_load,
            best.worst_load
        );
    }

    #[test]
    fn eq1_attains_the_anton_worst_case() {
        // Equation (1) is a worst-case demand for the selected routing
        // algorithm: under the (V−, U+, U−, V+) order it loads the busiest
        // mesh channel with exactly the order's worst-case two flows.
        let chip = ChipLayout::default();
        let results = search(&chip);
        let anton = results.iter().find(|r| r.order == DirOrder::ANTON).unwrap();
        let eq1_load = max_mesh_load(&chip, DirOrder::ANTON, &eq1_permutation());
        assert!(
            (eq1_load - anton.worst_load).abs() < 1e-9,
            "eq. (1) load {eq1_load} but Anton worst case {}",
            anton.worst_load
        );
    }

    #[test]
    fn a_common_worst_case_permutation_exists() {
        // Section 2.4: the search yields a common worst-case permutation for
        // all direction-order routing algorithms.
        let chip = ChipLayout::default();
        let results = search(&chip);
        let mut common: Option<Vec<SwitchPerm>> = None;
        for eval in &results {
            common = Some(match common {
                None => eval.worst_perms.clone(),
                Some(prev) => prev
                    .into_iter()
                    .filter(|p| eval.worst_perms.contains(p))
                    .collect(),
            });
        }
        let common = common.unwrap();
        assert!(
            !common.is_empty(),
            "no permutation is worst-case for every direction order"
        );
    }

    #[test]
    fn through_traffic_places_no_mesh_load() {
        let chip = ChipLayout::default();
        // All-through permutation: every direction departs on its opposite.
        let mut perm = [0usize; 6];
        for (i, slot) in perm.iter_mut().enumerate() {
            *slot = TorusDir::from_index(i).opposite().index();
        }
        let loads = mesh_link_loads(&chip, DirOrder::ANTON, &perm);
        assert!(loads.is_empty(), "through traffic must bypass the mesh");
    }
}
