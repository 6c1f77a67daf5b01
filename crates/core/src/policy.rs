//! Bootstrap-policy simulation (paper Appendix C).
//!
//! Before RFC 9615, the IETF floated several policies for accepting CDS
//! RRs from an unauthenticated child (RFC 8078 §3). The paper's Appendix C
//! explains why each falls short of "entirely automated whilst maintaining
//! the security expected of modern Internet protocols". This module makes
//! that argument quantitative: each policy is run over a scan's
//! bootstrappable population, deciding per zone whether it would have been
//! secured, at what automation level, and with what authentication.

use crate::scanner::ScanResults;
use crate::types::{AbClass, CdsClass, DnssecClass};
use netsim::DeterministicDraw;
use std::fmt::Write as _;

/// One of the Appendix C policies (or RFC 9615 itself).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BootstrapPolicy {
    /// "Accept via an Authenticated Channel": works only where DNS
    /// operator and registry share an out-of-band channel —
    /// `channel_coverage` is the fraction of operators that do.
    AuthenticatedChannel { channel_coverage: f64 },
    /// "Accept with Extra Checks": the registrar emails the customer;
    /// `confirmation_rate` is the fraction of customers who understand
    /// and act (the paper: "many customers are unlikely to understand").
    ExtraChecks { confirmation_rate: f64 },
    /// "Accept after Delay": install after the CDS was stable for a hold
    /// period from several vantage points. Automated, but only
    /// *heuristically* protected against hijacking.
    AcceptAfterDelay { hold_days: u32 },
    /// "Accept with Challenge": a token placed in the zone;
    /// `completion_rate` is the fraction of customers who manage it.
    AcceptWithChallenge { completion_rate: f64 },
    /// "Accept from Inception": only zones whose CDS predates
    /// registration; `preconfigured_rate` is how often operators set up
    /// the zone before registration ("often not the case").
    AcceptFromInception { preconfigured_rate: f64 },
    /// RFC 9615 Authenticated Bootstrapping.
    Authenticated,
}

impl BootstrapPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            BootstrapPolicy::AuthenticatedChannel { .. } => "Accept via Authenticated Channel",
            BootstrapPolicy::ExtraChecks { .. } => "Accept with Extra Checks",
            BootstrapPolicy::AcceptAfterDelay { .. } => "Accept after Delay",
            BootstrapPolicy::AcceptWithChallenge { .. } => "Accept with Challenge",
            BootstrapPolicy::AcceptFromInception { .. } => "Accept from Inception",
            BootstrapPolicy::Authenticated => "Authenticated Bootstrapping (RFC 9615)",
        }
    }

    /// Fully automated (no human in the loop)?
    pub fn automated(&self) -> bool {
        matches!(
            self,
            BootstrapPolicy::AuthenticatedChannel { .. }
                | BootstrapPolicy::AcceptAfterDelay { .. }
                | BootstrapPolicy::AcceptFromInception { .. }
                | BootstrapPolicy::Authenticated
        )
    }

    /// Cryptographically authenticated (vs heuristic/organisational)?
    pub fn authenticated(&self) -> bool {
        matches!(
            self,
            BootstrapPolicy::AuthenticatedChannel { .. } | BootstrapPolicy::Authenticated
        )
    }

    /// The residual weakness Appendix C calls out.
    pub fn caveat(&self) -> &'static str {
        match self {
            BootstrapPolicy::AuthenticatedChannel { .. } => {
                "no standardized backchannel; per-operator integration"
            }
            BootstrapPolicy::ExtraChecks { .. } => "customers rarely understand the notification",
            BootstrapPolicy::AcceptAfterDelay { .. } => {
                "heuristic only; hijack window during the delay"
            }
            BootstrapPolicy::AcceptWithChallenge { .. } => {
                "no token standard; customer action required"
            }
            BootstrapPolicy::AcceptFromInception { .. } => {
                "zone rarely configured before registration"
            }
            BootstrapPolicy::Authenticated => "needs extant DNSSEC at the operator's NS zones",
        }
    }
}

/// Outcome of running one policy over a scan.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    pub policy: String,
    /// Zones that could traditionally be bootstrapped (the denominator).
    pub candidates: u64,
    /// Zones the policy actually secures.
    pub secured: u64,
    /// Zones secured without any cryptographic authentication (the
    /// residual-risk population; 0 for authenticated policies).
    pub secured_unauthenticated: u64,
    pub automated: bool,
    pub authenticated: bool,
    pub caveat: String,
}

/// Evaluate `policy` over the scan's bootstrappable population.
///
/// Per-zone coin flips (customer confirmed, operator has a backchannel,
/// zone preconfigured) are deterministic in `(seed, zone)` so comparisons
/// across policies are reproducible.
pub fn evaluate(policy: BootstrapPolicy, results: &ScanResults, seed: u64) -> PolicyOutcome {
    let mut candidates = 0u64;
    let mut secured = 0u64;
    for z in results.resolved() {
        let bootstrappable = z.dnssec == DnssecClass::Island && z.cds == CdsClass::Valid;
        if !bootstrappable {
            continue;
        }
        candidates += 1;
        let draw = DeterministicDraw::new(seed, &[b"policy", &z.name.to_wire()]);
        let ok = match policy {
            BootstrapPolicy::AuthenticatedChannel { channel_coverage } => {
                // Channel existence is a property of the operator; use a
                // draw keyed on the operator so whole portfolios flip
                // together, like reality.
                let op = format!("{:?}", z.operator);
                DeterministicDraw::new(seed, &[b"chan", op.as_bytes()]).unit() < channel_coverage
            }
            BootstrapPolicy::ExtraChecks { confirmation_rate } => draw.unit() < confirmation_rate,
            BootstrapPolicy::AcceptAfterDelay { .. } => true, // always converges eventually
            BootstrapPolicy::AcceptWithChallenge { completion_rate } => {
                draw.next().unit() < completion_rate
            }
            BootstrapPolicy::AcceptFromInception { preconfigured_rate } => {
                draw.next().next().unit() < preconfigured_rate
            }
            BootstrapPolicy::Authenticated => z.ab == AbClass::SignalCorrect,
        };
        if ok {
            secured += 1;
        }
    }
    PolicyOutcome {
        policy: policy.name().to_string(),
        candidates,
        secured,
        secured_unauthenticated: if policy.authenticated() { 0 } else { secured },
        automated: policy.automated(),
        authenticated: policy.authenticated(),
        caveat: policy.caveat().to_string(),
    }
}

/// The paper-motivated default parameterisation of all six policies.
pub fn default_panel() -> Vec<BootstrapPolicy> {
    vec![
        BootstrapPolicy::AuthenticatedChannel {
            channel_coverage: 0.05,
        },
        BootstrapPolicy::ExtraChecks {
            confirmation_rate: 0.15,
        },
        BootstrapPolicy::AcceptAfterDelay { hold_days: 7 },
        BootstrapPolicy::AcceptWithChallenge {
            completion_rate: 0.10,
        },
        BootstrapPolicy::AcceptFromInception {
            preconfigured_rate: 0.08,
        },
        BootstrapPolicy::Authenticated,
    ]
}

/// Render a comparison table.
pub fn render_comparison(outcomes: &[PolicyOutcome]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Bootstrap-policy comparison (paper Appendix C)");
    let _ = writeln!(
        s,
        "{:<40} {:>10} {:>8} {:>6} {:>6}  caveat",
        "policy", "secured", "unauth", "auto", "crypto"
    );
    for o in outcomes {
        let _ = writeln!(
            s,
            "{:<40} {:>6}/{:<4} {:>7} {:>6} {:>6}  {}",
            o.policy,
            o.secured,
            o.candidates,
            o.secured_unauthenticated,
            if o.automated { "yes" } else { "no" },
            if o.authenticated { "yes" } else { "no" },
            o.caveat
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Identified;
    use crate::types::ZoneScan;
    use dns_wire::name;

    fn zone(n: &str, dnssec: DnssecClass, cds: CdsClass, ab: AbClass) -> ZoneScan {
        ZoneScan {
            name: name!(n),
            ns_names: vec![],
            parent_ds: vec![],
            ns_observations: vec![],
            signal_observations: vec![],
            dnssec,
            cds,
            ab,
            operator: Identified::Single("Op".into()),
            queries: 0,
            elapsed: 0,
            sampled: false,
            retry_stats: crate::error::RetryStats::default(),
            degraded: false,
        }
    }

    fn results() -> ScanResults {
        let mut zones = Vec::new();
        for i in 0..100 {
            zones.push(zone(
                &format!("b{i}.com"),
                DnssecClass::Island,
                CdsClass::Valid,
                if i < 90 {
                    AbClass::SignalCorrect
                } else if i < 95 {
                    AbClass::SignalIncorrect(crate::types::SignalViolation::NotUnderEveryNs)
                } else {
                    AbClass::NoSignal
                },
            ));
        }
        zones.push(zone(
            "u.com",
            DnssecClass::Unsigned,
            CdsClass::Absent,
            AbClass::NoSignal,
        ));
        zones.push(zone(
            "d.com",
            DnssecClass::Island,
            CdsClass::Delete,
            AbClass::NoSignal,
        ));
        ScanResults {
            zones,
            simulated_duration: 0,
            total_queries: 0,
        }
    }

    #[test]
    fn candidates_are_bootstrappable_islands_only() {
        let o = evaluate(
            BootstrapPolicy::AcceptAfterDelay { hold_days: 7 },
            &results(),
            1,
        );
        assert_eq!(o.candidates, 100);
        assert_eq!(o.secured, 100); // delay always converges
        assert_eq!(o.secured_unauthenticated, 100); // but unauthenticated
        assert!(o.automated && !o.authenticated);
    }

    #[test]
    fn ab_secures_only_signal_correct_and_authenticated() {
        let o = evaluate(BootstrapPolicy::Authenticated, &results(), 1);
        assert_eq!(o.candidates, 100);
        assert_eq!(o.secured, 90);
        assert_eq!(o.secured_unauthenticated, 0);
        assert!(o.automated && o.authenticated);
    }

    #[test]
    fn customer_action_policies_secure_roughly_their_rate() {
        let o = evaluate(
            BootstrapPolicy::ExtraChecks {
                confirmation_rate: 0.15,
            },
            &results(),
            1,
        );
        assert!(o.secured < 40, "{}", o.secured);
        assert!(!o.automated);
        let o = evaluate(
            BootstrapPolicy::AcceptWithChallenge {
                completion_rate: 0.10,
            },
            &results(),
            1,
        );
        assert!(o.secured < 35, "{}", o.secured);
    }

    #[test]
    fn channel_policy_flips_whole_operators() {
        // Coverage 0 → nothing; coverage ~1 → everything.
        let none = evaluate(
            BootstrapPolicy::AuthenticatedChannel {
                channel_coverage: 0.0,
            },
            &results(),
            1,
        );
        assert_eq!(none.secured, 0);
        let all = evaluate(
            BootstrapPolicy::AuthenticatedChannel {
                channel_coverage: 0.999_999,
            },
            &results(),
            1,
        );
        assert_eq!(all.secured, 100);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = evaluate(
            BootstrapPolicy::ExtraChecks {
                confirmation_rate: 0.5,
            },
            &results(),
            7,
        );
        let b = evaluate(
            BootstrapPolicy::ExtraChecks {
                confirmation_rate: 0.5,
            },
            &results(),
            7,
        );
        assert_eq!(a.secured, b.secured);
    }

    #[test]
    fn panel_renders() {
        let outcomes: Vec<PolicyOutcome> = default_panel()
            .into_iter()
            .map(|p| evaluate(p, &results(), 3))
            .collect();
        let table = render_comparison(&outcomes);
        assert!(table.contains("RFC 9615"));
        assert!(table.contains("Accept after Delay"));
        // Only the two authenticated policies have zero unauthenticated
        // installs.
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| o.secured_unauthenticated == 0)
                .count(),
            2
        );
    }
}
