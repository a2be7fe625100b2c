//! The arbitration plan: which policy runs at each arbitration site, and
//! where a weight set is programmed.

use std::fmt;
use std::ops::Index;
use std::str::FromStr;

use crate::{ArbiterKind, GrantSite};

/// One arbitration site's entry in an [`ArbiterPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct SitePlan {
    /// The policy every arbiter at the site starts with, as
    /// [`BitsetArbiter::from_kind`](crate::BitsetArbiter::from_kind) builds
    /// it (inverse-weighted starts from uniform weights).
    pub start: ArbiterKind,
    /// Whether a weight set's tables are programmed here: an arbiter the
    /// set has a table for becomes inverse-weighted at the set's width, and
    /// one it has none for keeps `start`.
    pub weighted: bool,
}

/// Which policy runs at SA1, SA2 and the serializer, and where a weight
/// set is programmed: a simulation's whole arbitration setup, indexed by
/// [`GrantSite`]. The three [`ArbiterKind`]s are its named rows
/// (`From<ArbiterKind>`):
///
/// | plan | SA1 | SA2 | serializer |
/// |---|---|---|---|
/// | `rr` | rr | rr | rr |
/// | `age` | rr | age | rr |
/// | `iw` | rr + weights | iw + weights | rr + weights |
///
/// Its text form ([`FromStr`] / [`Display`](fmt::Display)) is a row's name
/// or every site once, `sa1=P,sa2=P,ser=P` in any order, where `P` is
/// `rr`, `age` or `iw` (M = 5), suffixed `+w` at a weighted site: `iw` is
/// `sa1=rr+w,sa2=iw+w,ser=rr+w`. A plan built in code with another width
/// prints it (`iw4`) but the text form does not read it.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterPlan {
    /// The entries in [`GrantSite`] order.
    pub sites: [SitePlan; 3],
}

impl ArbiterPlan {
    /// The widths of the sites that start inverse-weighted, in site order.
    pub fn iw_bits(&self) -> impl Iterator<Item = u32> + '_ {
        self.sites.iter().filter_map(|s| match s.start {
            ArbiterKind::InverseWeighted { m_bits } => Some(m_bits),
            _ => None,
        })
    }

    /// The width a weight set is computed at: `None` when no site is
    /// weighted; otherwise the inverse-weighted sites' width, or the
    /// paper's M = 5 when none starts inverse-weighted.
    pub fn weight_bits(&self) -> Option<u32> {
        let weighted = self.sites.iter().any(|s| s.weighted);
        weighted.then(|| self.iw_bits().next().unwrap_or(5))
    }

    /// Whether a weight set of width `m_bits` can be programmed: some site
    /// is weighted, and every inverse-weighted site has that width.
    pub fn takes_weights(&self, m_bits: u32) -> bool {
        self.sites.iter().any(|s| s.weighted) && self.iw_bits().all(|m| m == m_bits)
    }
}

impl Index<GrantSite> for ArbiterPlan {
    type Output = SitePlan;
    fn index(&self, site: GrantSite) -> &SitePlan {
        &self.sites[site as usize]
    }
}

impl From<ArbiterKind> for ArbiterPlan {
    /// The named row of `kind`: its policy at SA2, round-robin at SA1 and
    /// the serializer, and weights at every site when it is
    /// inverse-weighted.
    fn from(kind: ArbiterKind) -> ArbiterPlan {
        let weighted = matches!(kind, ArbiterKind::InverseWeighted { .. });
        let site = |start| SitePlan { start, weighted };
        let rr = || site(ArbiterKind::RoundRobin);
        ArbiterPlan {
            sites: [rr(), site(kind), rr()],
        }
    }
}

/// The policies the text form reads, whose names are also the rows'.
const POLICIES: [ArbiterKind; 3] = [
    ArbiterKind::RoundRobin,
    ArbiterKind::Age,
    ArbiterKind::InverseWeighted { m_bits: 5 },
];

/// A policy's name in the text form; another width than 5, which only a
/// plan built in code has, prints as `iwM`.
fn policy_name(kind: &ArbiterKind) -> String {
    match kind {
        ArbiterKind::RoundRobin => "rr".into(),
        ArbiterKind::Age => "age".into(),
        ArbiterKind::InverseWeighted { m_bits: 5 } => "iw".into(),
        ArbiterKind::InverseWeighted { m_bits } => format!("iw{m_bits}"),
    }
}

/// Each site's key in the per-site form, in [`GrantSite`] order.
const SITES: [(&str, GrantSite); 3] = [
    ("sa1", GrantSite::Sa1),
    ("sa2", GrantSite::Output),
    ("ser", GrantSite::Serializer),
];

impl fmt::Display for ArbiterPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(kind) = POLICIES.into_iter().find(|k| *self == k.clone().into()) {
            return f.write_str(&policy_name(&kind));
        }
        for (i, ((key, _), site)) in SITES.iter().zip(&self.sites).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let weighted = if site.weighted { "+w" } else { "" };
            write!(f, "{sep}{key}={}{weighted}", policy_name(&site.start))?;
        }
        Ok(())
    }
}

/// Why a string is not an [`ArbiterPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The string is empty.
    Empty,
    /// An entry is neither a row's name nor `site=policy`.
    Malformed(String),
    /// A site key other than `sa1`, `sa2` or `ser`.
    UnknownSite(String),
    /// A policy other than `rr`, `age` or `iw`.
    UnknownPolicy(String),
    /// A site given twice.
    DuplicateSite(GrantSite),
    /// A site not given.
    MissingSite(GrantSite),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = |site: &GrantSite| SITES[*site as usize].0;
        match self {
            PlanError::Empty => write!(f, "empty arbitration plan"),
            PlanError::Malformed(s) => write!(
                f,
                "`{s}` is neither a plan name (rr, iw, age) nor a `site=policy` entry"
            ),
            PlanError::UnknownSite(s) => write!(f, "unknown arbitration site `{s}`"),
            PlanError::UnknownPolicy(s) => write!(f, "unknown arbitration policy `{s}`"),
            PlanError::DuplicateSite(s) => write!(f, "site `{}` given twice", key(s)),
            PlanError::MissingSite(s) => write!(f, "site `{}` not given", key(s)),
        }
    }
}

impl std::error::Error for PlanError {}

impl FromStr for ArbiterPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<ArbiterPlan, PlanError> {
        let named = |name: &str| POLICIES.into_iter().find(|k| policy_name(k) == name);
        if let Some(kind) = named(s) {
            return Ok(kind.into());
        }
        if s.is_empty() {
            return Err(PlanError::Empty);
        }
        let mut sites: [Option<SitePlan>; 3] = [None, None, None];
        for entry in s.split(',') {
            let malformed = || PlanError::Malformed(entry.to_string());
            let (key, policy) = entry.split_once('=').ok_or_else(malformed)?;
            let i = (SITES.iter().position(|(k, _)| *k == key))
                .ok_or_else(|| PlanError::UnknownSite(key.to_string()))?;
            let (policy, weighted) = match policy.strip_suffix("+w") {
                Some(policy) => (policy, true),
                None => (policy, false),
            };
            let start = named(policy).ok_or_else(|| PlanError::UnknownPolicy(policy.into()))?;
            if sites[i].replace(SitePlan { start, weighted }).is_some() {
                return Err(PlanError::DuplicateSite(SITES[i].1));
            }
        }
        if let Some(i) = sites.iter().position(Option::is_none) {
            return Err(PlanError::MissingSite(SITES[i].1));
        }
        Ok(ArbiterPlan {
            sites: sites.map(|s| s.expect("every site given")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RR: ArbiterKind = ArbiterKind::RoundRobin;
    const IW: ArbiterKind = ArbiterKind::InverseWeighted { m_bits: 5 };

    fn site(start: ArbiterKind, weighted: bool) -> SitePlan {
        SitePlan { start, weighted }
    }

    /// The named rows are the table in the type's docs, written out site by
    /// site, and each prints as its name.
    #[test]
    fn the_named_rows_are_the_table() {
        let rows = [
            (
                "rr",
                RR,
                [site(RR, false), site(RR, false), site(RR, false)],
            ),
            (
                "age",
                ArbiterKind::Age,
                [
                    site(RR, false),
                    site(ArbiterKind::Age, false),
                    site(RR, false),
                ],
            ),
            ("iw", IW, [site(RR, true), site(IW, true), site(RR, true)]),
        ];
        for (name, kind, sites) in rows {
            let plan = ArbiterPlan { sites };
            assert_eq!(ArbiterPlan::from(kind), plan, "{name}");
            assert_eq!(name.parse::<ArbiterPlan>(), Ok(plan.clone()));
            assert_eq!(plan.to_string(), name);
        }
        assert_eq!(
            "sa1=rr+w,sa2=iw+w,ser=rr+w".parse::<ArbiterPlan>(),
            Ok(IW.into())
        );
    }

    #[test]
    fn per_site_entries_parse_in_any_order() {
        let plan: ArbiterPlan = "ser=rr+w,sa1=age,sa2=iw".parse().unwrap();
        assert_eq!(plan[GrantSite::Sa1], site(ArbiterKind::Age, false));
        assert_eq!(plan[GrantSite::Output], site(IW, false));
        assert_eq!(plan[GrantSite::Serializer], site(RR, true));
        assert_eq!(plan.to_string(), "sa1=age,sa2=iw,ser=rr+w");
    }

    /// A width other than 5 prints, for diagnostics, but does not parse.
    #[test]
    fn only_a_plan_built_in_code_has_another_width() {
        let iw4 = ArbiterPlan::from(ArbiterKind::InverseWeighted { m_bits: 4 });
        assert_eq!(iw4.to_string(), "sa1=rr+w,sa2=iw4+w,ser=rr+w");
        let err = PlanError::UnknownPolicy("iw4".into());
        assert_eq!(iw4.to_string().parse::<ArbiterPlan>(), Err(err));
    }

    #[test]
    fn each_malformed_plan_names_its_fault() {
        use PlanError::*;
        for (text, err) in [
            ("", Empty),
            ("fifo", Malformed("fifo".into())),
            ("sa1=rr,sa2=rr,ser=rr,", Malformed(String::new())),
            ("sa3=rr,sa2=rr,ser=rr", UnknownSite("sa3".into())),
            ("sa1=fifo,sa2=rr,ser=rr", UnknownPolicy("fifo".into())),
            ("sa1=iw5,sa2=rr,ser=rr", UnknownPolicy("iw5".into())),
            ("sa1=iw+8,sa2=rr,ser=rr", UnknownPolicy("iw+8".into())),
            ("sa1=rr+w+w,sa2=rr,ser=rr", UnknownPolicy("rr+w".into())),
            ("sa1=rr,sa1=age,ser=rr", DuplicateSite(GrantSite::Sa1)),
            ("sa1=rr,sa2=rr", MissingSite(GrantSite::Serializer)),
        ] {
            assert_eq!(text.parse::<ArbiterPlan>(), Err(err), "{text:?}");
        }
    }

    #[test]
    fn the_weight_width_follows_the_inverse_weighted_sites() {
        let plan = |s: &str| s.parse::<ArbiterPlan>().unwrap();
        let iw8 = ArbiterKind::InverseWeighted { m_bits: 8 };
        assert_eq!(plan("rr").weight_bits(), None);
        assert_eq!(plan("sa1=rr,sa2=iw,ser=rr").weight_bits(), None);
        assert_eq!(plan("iw").weight_bits(), Some(5));
        assert_eq!(ArbiterPlan::from(iw8).weight_bits(), Some(8));
        assert_eq!(plan("sa1=age+w,sa2=rr,ser=rr").weight_bits(), Some(5));
        assert!(plan("iw").takes_weights(5));
        assert!(!plan("iw").takes_weights(4));
        assert!(!plan("sa1=rr,sa2=iw,ser=rr").takes_weights(5));
        assert!(plan("sa1=rr+w,sa2=rr,ser=rr").takes_weights(9));
    }
}
