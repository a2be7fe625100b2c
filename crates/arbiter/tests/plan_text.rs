//! The arbitration plan's text form: every plan survives `Display` →
//! `FromStr`, and hostile strings are a typed `PlanError`, never a panic.

use anton_arbiter::{ArbiterKind, ArbiterPlan, SitePlan};
use proptest::prelude::*;

const STARTS: [ArbiterKind; 3] = [
    ArbiterKind::RoundRobin,
    ArbiterKind::Age,
    ArbiterKind::InverseWeighted { m_bits: 5 },
];

/// Plan `i` of the 27 start-policy combinations × 8 weighted masks.
fn plan(i: usize) -> ArbiterPlan {
    let (starts, mask) = (i / 8, i % 8);
    let sites = [0, 1, 2].map(|s| SitePlan {
        start: STARTS[starts / 3usize.pow(s) % 3].clone(),
        weighted: mask >> s & 1 == 1,
    });
    ArbiterPlan { sites }
}

#[test]
fn every_plan_round_trips_through_its_text() {
    let plans: Vec<ArbiterPlan> = (0..27 * 8).map(plan).collect();
    for (i, p) in plans.iter().enumerate() {
        assert!(plans[..i].iter().all(|q| q != p), "plan {i} repeats");
        let text = p.to_string();
        assert_eq!(text.parse::<ArbiterPlan>(), Ok(p.clone()), "{text}");
    }
}

/// Characters a plan is made of, and some it is not.
const ALPHABET: &[char] = &[
    's', 'a', 'e', 'r', 'i', 'w', 'g', '1', '2', '5', '9', '0', '=', ',', '+', ' ', '-', 'é', '\0',
];

/// Applies one edit to `text` at char position `at`: delete, duplicate,
/// replace with an alphabet char, or truncate.
fn mutate(text: &str, op: u8, at: usize, with: usize) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let at = at % (chars.len() + 1);
    match op % 4 {
        0 if at < chars.len() => {
            chars.remove(at);
        }
        1 if at < chars.len() => chars.insert(at, chars[at]),
        2 if at < chars.len() => chars[at] = ALPHABET[with % ALPHABET.len()],
        _ => chars.truncate(at),
    }
    chars.into_iter().collect()
}

/// A parse result is fine if it is a plan whose text reads back as itself,
/// or an error that prints.
fn check(text: &str) -> Result<(), TestCaseError> {
    match text.parse::<ArbiterPlan>() {
        Ok(p) => prop_assert_eq!(p.to_string().parse::<ArbiterPlan>(), Ok(p)),
        Err(e) => prop_assert!(!e.to_string().is_empty(), "{:?}", e),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_strings_never_panic(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..40),
    ) {
        let text: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
        check(&text)?;
    }

    #[test]
    fn mutated_plans_never_panic(
        i in 0usize..27 * 8,
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut text = plan(i).to_string();
        for (op, at, with) in edits {
            text = mutate(&text, op, at, with);
        }
        check(&text)?;
    }
}
