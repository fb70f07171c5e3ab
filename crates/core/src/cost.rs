//! Operational-cost extension (the paper's Section V "other metrics").
//!
//! The paper proposes comparing redundancy designs economically: the gain
//! of high availability versus the cost of redundant servers, and the loss
//! from successful attacks versus the cost of patching. This module
//! implements that trade-off as a simple expected-monthly-cost model so
//! the `redeval cost` report can rank designs.

use crate::evaluation::DesignEvaluation;

/// Monetary parameters of the cost model (currency-agnostic units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost of operating one server for a month (hardware,
    /// licensing, energy).
    pub server_month: f64,
    /// Revenue lost per hour of *lost capacity* (weighted by 1 − COA).
    pub downtime_hour: f64,
    /// Expected loss of one successful compromise of the target data.
    pub breach: f64,
    /// Hours in the accounting period (the paper's monthly cycle: 720).
    pub period_hours: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            server_month: 500.0,
            downtime_hour: 1000.0,
            breach: 100_000.0,
            period_hours: 720.0,
        }
    }
}

/// Cost breakdown of one design for one period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Server operating cost.
    pub servers: f64,
    /// Expected capacity-loss cost `(1 − COA) · hours · rate`.
    pub downtime: f64,
    /// Expected breach cost `ASP_after · breach` (one campaign per
    /// period).
    pub breach: f64,
}

impl CostBreakdown {
    /// Total expected cost.
    pub fn total(&self) -> f64 {
        self.servers + self.downtime + self.breach
    }
}

impl CostModel {
    /// Expected monthly cost of a design.
    pub fn evaluate(&self, e: &DesignEvaluation) -> CostBreakdown {
        CostBreakdown {
            servers: e.total_servers() as f64 * self.server_month,
            downtime: (1.0 - e.coa) * self.period_hours * self.downtime_hour,
            breach: e.after.attack_success_probability * self.breach,
        }
    }

    /// The design with minimal total cost, with its breakdown.
    pub fn cheapest<'a>(
        &self,
        evals: &'a [DesignEvaluation],
    ) -> Option<(&'a DesignEvaluation, CostBreakdown)> {
        evals.iter().map(|e| (e, self.evaluate(e))).min_by(|a, b| {
            a.1.total()
                .partial_cmp(&b.1.total())
                .expect("costs are finite")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval_harm::SecurityMetrics;

    fn eval(servers: u32, asp: f64, coa: f64) -> DesignEvaluation {
        let m = SecurityMetrics {
            attack_impact: 42.2,
            attack_success_probability: asp,
            exploitable_vulnerabilities: 9,
            attack_paths: 2,
            entry_points: 1,
            shortest_path_length: Some(3),
            mean_path_length: 3.0,
            risk: 4.0,
        };
        DesignEvaluation {
            name: format!("{servers} servers"),
            counts: vec![servers],
            before: m.clone(),
            after: m,
            coa,
            availability: coa,
            expected_up: servers as f64,
        }
    }

    #[test]
    fn breakdown_components() {
        let model = CostModel {
            server_month: 100.0,
            downtime_hour: 10.0,
            breach: 1000.0,
            period_hours: 720.0,
        };
        let b = model.evaluate(&eval(4, 0.1, 0.999));
        assert_eq!(b.servers, 400.0);
        assert!((b.downtime - 0.001 * 720.0 * 10.0).abs() < 1e-9);
        assert!((b.breach - 100.0).abs() < 1e-12);
        assert!((b.total() - (400.0 + 7.2 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn cheapest_balances_terms() {
        let model = CostModel {
            server_month: 500.0,
            downtime_hour: 100_000.0,
            breach: 0.0,
            period_hours: 720.0,
        };
        // With very expensive downtime, the higher-COA design wins even
        // with an extra server.
        let evals = vec![eval(4, 0.1, 0.9956), eval(5, 0.15, 0.9964)];
        let (best, _) = model.cheapest(&evals).unwrap();
        assert_eq!(best.total_servers(), 5);

        // With cheap downtime, fewer servers win.
        let model2 = CostModel {
            downtime_hour: 1.0,
            ..model
        };
        let (best2, _) = model2.cheapest(&evals).unwrap();
        assert_eq!(best2.total_servers(), 4);
    }

    #[test]
    fn empty_list_has_no_cheapest() {
        assert!(CostModel::default().cheapest(&[]).is_none());
    }
}
