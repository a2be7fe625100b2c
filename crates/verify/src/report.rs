//! Typed diagnostics and the verification report.
//!
//! Every check in this crate reports through [`Diagnostic`]: a stable code
//! (`AV001`, `AV002`, …), a severity, a human-readable message, and
//! structured `key = value` context. The full set of codes is tabulated in
//! `docs/DESIGN.md`. A [`VerifyReport`] bundles the diagnostics with the
//! deadlock certificate and exports to JSON through `anton-obs`.

use std::fmt;

use anton_core::config::GlobalEndpoint;
use anton_core::net::RoutePath;
use anton_obs::json::Json;
use anton_obs::link_json::link_to_json;

use crate::graph::ChannelVc;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but simulable; reported, never fatal.
    Warning,
    /// The configuration is broken; pre-flight enforcement refuses to run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the lint engine or the deadlock verifier.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code (`AV0xx` for configuration checks, `AV1xx` for
    /// command-line usage errors).
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Structured `(key, value)` context.
    pub context: Vec<(String, String)>,
}

impl Diagnostic {
    /// An [`Severity::Error`] diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// A [`Severity::Warning`] diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Appends one `key = value` context entry (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl ToString) -> Diagnostic {
        self.context.push((key.into(), value.to_string()));
        self
    }

    /// Appends the summary of `cert`'s counterexample, if it has one: the
    /// cycle length, its first `listed` `(channel, VC)` entries and the
    /// first witness route.
    pub(crate) fn with_cycle(mut self, cert: &DeadlockCertificate, listed: usize) -> Diagnostic {
        if let Some(ce) = &cert.counterexample {
            self = self.with("cycle_length", ce.cycle.len());
            for (i, (link, vc)) in ce.cycle.iter().take(listed).enumerate() {
                self = self.with(format!("cycle[{i}]"), format!("{link}@{vc}"));
            }
            if let Some(w) = ce.witnesses.first() {
                self = self.with("witness", w);
            }
        }
        self
    }

    /// Exports the diagnostic as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::from(self.code)),
            ("severity", Json::from(self.severity.to_string())),
            ("message", Json::from(self.message.as_str())),
            (
                "context",
                Json::Obj(
                    self.context
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        for (k, v) in &self.context {
            write!(f, "\n    {k} = {v}")?;
        }
        Ok(())
    }
}

/// A concrete route witnessing one edge of a dependency cycle: a packet
/// following it holds `holds` while requesting `waits_for`.
#[derive(Debug, Clone)]
pub struct WitnessRoute {
    /// Source endpoint of the witness packet.
    pub src: GlobalEndpoint,
    /// Destination endpoint.
    pub dst: GlobalEndpoint,
    /// The route taken, in the topology's native path representation.
    pub path: RoutePath,
    /// The `(channel, VC)` the packet holds.
    pub holds: ChannelVc,
    /// The `(channel, VC)` the packet waits for while holding `holds`.
    pub waits_for: ChannelVc,
}

impl WitnessRoute {
    /// Exports the witness as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("src".to_string(), Json::from(self.src.to_string())),
            ("dst".to_string(), Json::from(self.dst.to_string())),
        ];
        match &self.path {
            RoutePath::Torus { hops, slice } => {
                pairs.push((
                    "hops".to_string(),
                    Json::arr(hops.iter().map(|h| Json::from(h.to_string()))),
                ));
                pairs.push(("slice".to_string(), Json::from(u64::from(slice.0))));
            }
            RoutePath::Nodes(nodes) => {
                pairs.push((
                    "nodes".to_string(),
                    Json::arr(nodes.iter().map(|n| Json::from(u64::from(n.0)))),
                ));
            }
        }
        pairs.push(("holds".to_string(), channel_vc_to_json(&self.holds)));
        pairs.push(("waits_for".to_string(), channel_vc_to_json(&self.waits_for)));
        Json::Obj(pairs)
    }
}

impl fmt::Display for WitnessRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} via {}: holds {}@{} waits {}@{}",
            self.src,
            self.dst,
            self.path,
            self.holds.0,
            self.holds.1,
            self.waits_for.0,
            self.waits_for.1
        )
    }
}

fn channel_vc_to_json(cv: &ChannelVc) -> Json {
    Json::obj([
        ("link", link_to_json(&cv.0)),
        ("vc", Json::from(u64::from(cv.1 .0))),
    ])
}

/// A minimal concrete dependency cycle extracted from a failed certification.
#[derive(Debug, Clone)]
pub struct CycleCounterexample {
    /// The `(channel, VC)` ring, in dependency order.
    pub cycle: Vec<ChannelVc>,
    /// Concrete routes witnessing the cycle's edges (capped; one per edge).
    pub witnesses: Vec<WitnessRoute>,
}

impl CycleCounterexample {
    /// Exports the counterexample as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "cycle",
                Json::Arr(self.cycle.iter().map(channel_vc_to_json).collect()),
            ),
            (
                "witnesses",
                Json::Arr(self.witnesses.iter().map(WitnessRoute::to_json).collect()),
            ),
        ])
    }
}

/// The result of symbolically certifying a machine deadlock-free.
#[derive(Debug, Clone)]
pub struct DeadlockCertificate {
    /// Label of the certified model — for a torus, the VC policy and
    /// dateline setting (e.g. `"anton(n+1) policy, datelines on"`); for
    /// other topologies, the routing functions certified.
    pub model: String,
    /// Live `(channel, VC)` pairs in the symbolic dependency graph.
    pub nodes: usize,
    /// Dependency edges in the symbolic graph.
    pub edges: usize,
    /// Whether the graph is acyclic (the machine is deadlock-free).
    pub acyclic: bool,
    /// Present iff `!acyclic`.
    pub counterexample: Option<CycleCounterexample>,
}

impl DeadlockCertificate {
    /// Exports the certificate as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("model".to_string(), Json::from(self.model.as_str())),
            ("nodes".to_string(), Json::from(self.nodes)),
            ("edges".to_string(), Json::from(self.edges)),
            ("acyclic".to_string(), Json::from(self.acyclic)),
        ];
        if let Some(ce) = &self.counterexample {
            pairs.push(("counterexample".to_string(), ce.to_json()));
        }
        Json::Obj(pairs)
    }
}

impl fmt::Display for DeadlockCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.acyclic {
            write!(
                f,
                "certified deadlock-free: {}, {} channel-VC pairs, {} dependency edges, acyclic",
                self.model, self.nodes, self.edges
            )
        } else {
            let len = self.counterexample.as_ref().map_or(0, |ce| ce.cycle.len());
            write!(
                f,
                "NOT deadlock-free: {}, dependency cycle of length {len}",
                self.model
            )
        }
    }
}

/// The full output of a verification run: lint diagnostics plus the
/// deadlock certificate.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// All diagnostics, in emission order.
    pub diagnostics: Vec<Diagnostic>,
    /// The symbolic deadlock certificate, when certification ran.
    pub certificate: Option<DeadlockCertificate>,
}

impl VerifyReport {
    /// Whether any diagnostic is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics.len() - self.num_errors()
    }

    /// One-line summary of the verification outcome.
    pub fn summary(&self) -> String {
        let verdict = match &self.certificate {
            Some(c) if c.acyclic => "deadlock-free",
            Some(_) => "DEADLOCK-PRONE",
            None => "deadlock status unchecked",
        };
        format!(
            "{verdict}; {} error(s), {} warning(s)",
            self.num_errors(),
            self.num_warnings()
        )
    }

    /// Exports the report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("summary", Json::from(self.summary())),
            ("ok", Json::from(!self.has_errors())),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            (
                "certificate",
                self.certificate
                    .as_ref()
                    .map_or(Json::Null, DeadlockCertificate::to_json),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_renders_code_and_context() {
        let d = Diagnostic::error("AV007", "zero buffer depth").with("buffer_depth", 0);
        let text = d.to_string();
        assert!(text.starts_with("error[AV007]: zero buffer depth"));
        assert!(text.contains("buffer_depth = 0"));
        let j = d.to_json();
        assert_eq!(j.get("code").unwrap().as_str(), Some("AV007"));
        assert_eq!(j.get("severity").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn report_summary_counts_severities() {
        let report = VerifyReport {
            diagnostics: vec![
                Diagnostic::error("AV001", "a"),
                Diagnostic::warning("AV008", "b"),
                Diagnostic::warning("AV013", "c"),
            ],
            certificate: None,
        };
        assert!(report.has_errors());
        assert_eq!(report.num_errors(), 1);
        assert_eq!(report.num_warnings(), 2);
        assert!(report.summary().contains("1 error(s), 2 warning(s)"));
        assert_eq!(report.to_json().get("ok").unwrap().as_bool(), Some(false));
    }
}
