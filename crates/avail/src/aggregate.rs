//! Steady-state analysis of one server and the paper's two-state
//! aggregation (Equations (1) and (2)).

use redeval_markov::{BirthDeath, SolveError};
use redeval_srn::SrnError;

use crate::params::ServerParams;
use crate::server::{PatchScenario, ServerModel};

/// The aggregated two-state abstraction of a server's patch behaviour:
/// the server leaves the *up* state at `lambda_eq` (the patch arriving)
/// and returns at `mu_eq` (the patch cycle completing).
///
/// The paper's Table V lists these rates for all four service types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedRates {
    /// Patch rate λ_eq = τ_p (Equation (1)), per hour.
    pub lambda_eq: f64,
    /// Recovery rate µ_eq = β_svc · p_prrb / p_pd (Equation (2)), per hour.
    pub mu_eq: f64,
}

impl AggregatedRates {
    /// Mean time to patch, `1/λ_eq` (hours).
    pub fn mttp(&self) -> f64 {
        1.0 / self.lambda_eq
    }

    /// Mean time to recovery, `1/µ_eq` (hours).
    pub fn mttr(&self) -> f64 {
        1.0 / self.mu_eq
    }

    /// Steady-state distribution of the number of **down** servers among
    /// `count` servers with these rates (independent patch clocks →
    /// machine-repair birth–death chain), indexed by down servers.
    ///
    /// # Errors
    ///
    /// Propagates invalid-rate errors.
    pub fn down_distribution(&self, count: u32) -> Result<Vec<f64>, SolveError> {
        BirthDeath::machine_repair(count as usize, self.lambda_eq, self.mu_eq).steady_state()
    }
}

/// Exact steady-state quantities of one server's lower-layer SRN.
///
/// Produced by [`ServerParams::analyze`] /
/// [`ServerAnalysis::of`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerAnalysis {
    name: String,
    availability: f64,
    p_patch_down: f64,
    p_ready_reboot: f64,
    p_failed: f64,
    rates: AggregatedRates,
    tangible_states: usize,
    solve_stats: redeval_markov::SolveStats,
}

impl ServerAnalysis {
    /// Solves the lower-layer SRN of `params` (full patch scenario) and
    /// aggregates it.
    ///
    /// # Errors
    ///
    /// Propagates SRN construction/solve errors.
    pub fn of(params: &ServerParams) -> Result<ServerAnalysis, SrnError> {
        Self::of_scenario(params, PatchScenario::Full)
    }

    /// Solves and aggregates a server under a partial patch scenario.
    ///
    /// For the paper's [`PatchScenario::Full`] the recovery rate is
    /// Equation (2), `β_svc · p_prrb / p_pd`. For the other scenarios the
    /// exit transition differs (or is immediate), so the equivalent
    /// **flow-balance** form is used: µ_eq = (probability flow leaving the
    /// patch-down macro-state) / p_pd — which coincides with Equation (2)
    /// in the full scenario (verified by tests).
    ///
    /// # Errors
    ///
    /// Propagates SRN construction/solve errors.
    pub fn of_scenario(
        params: &ServerParams,
        scenario: PatchScenario,
    ) -> Result<ServerAnalysis, SrnError> {
        let model = ServerModel::build_scenario(params, scenario);
        let places = *model.places();
        let space = model.net().state_space()?;
        let tangible_states = space.len();

        // Flow out of the patch-down macro-state, computed from the CTMC
        // before consuming the state space.
        let markings = space.tangible_markings().to_vec();
        let transitions: Vec<(usize, usize, f64)> = space
            .ctmc()
            .transitions()
            .iter()
            .map(|t| (t.from, t.to, t.rate))
            .collect();
        let solved = space.solve()?;
        let solve_stats = solved.solve_stats();
        let pi = solved.steady_state();
        let in_pd: Vec<bool> = markings
            .iter()
            .map(|m| places.down_due_to_patch(m))
            .collect();
        let exit_flow: f64 = transitions
            .iter()
            .filter(|&&(from, to, _)| in_pd[from] && !in_pd[to])
            .map(|&(from, _, rate)| pi[from] * rate)
            .sum();

        let availability = solved.probability(|m| places.service_up(m));
        // p_svc_pd: down due to patch (ready-to-patch, patched,
        // ready-to-reboot).
        let p_patch_down = solved.probability(|m| places.down_due_to_patch(m));
        // p_svc_prrb: the exit state of the paper's full patch cycle.
        let p_ready_reboot = solved.probability(|m| places.ready_to_reboot(m));
        let p_failed = solved
            .probability(|m| m.tokens(places.svc_failed) == 1 || m.tokens(places.svc_down) == 1);

        // Equation (1): the patch process is dominated by the clock.
        let lambda_eq = params.patch_interval.rate_per_hour();
        // Equation (2) / its flow-balance generalization.
        let mu_eq = if p_patch_down > 0.0 {
            exit_flow / p_patch_down
        } else {
            f64::INFINITY
        };

        Ok(ServerAnalysis {
            name: params.name.clone(),
            availability,
            p_patch_down,
            p_ready_reboot,
            p_failed,
            rates: AggregatedRates { lambda_eq, mu_eq },
            tangible_states,
            solve_stats,
        })
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same solved analysis relabelled with a different service
    /// name: every steady-state quantity is copied unchanged, only the
    /// label differs. This is what lets a solve cache reuse one SRN
    /// solution across tiers whose parameters are identical but whose
    /// names are not — the numbers cannot depend on the name, the
    /// report rows must carry the right one.
    pub fn renamed(&self, name: impl Into<String>) -> ServerAnalysis {
        ServerAnalysis {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Steady-state probability that the service is up.
    pub fn availability(&self) -> f64 {
        self.availability
    }

    /// `p_svc_pd` — probability of being down due to patching.
    pub fn p_patch_down(&self) -> f64 {
        self.p_patch_down
    }

    /// `p_svc_prrb` — probability of the patch-cycle exit state.
    pub fn p_ready_reboot(&self) -> f64 {
        self.p_ready_reboot
    }

    /// Probability of being down due to failures (not patching).
    pub fn p_failed(&self) -> f64 {
        self.p_failed
    }

    /// The aggregated rates (Equations (1), (2)).
    pub fn rates(&self) -> AggregatedRates {
        self.rates
    }

    /// Size of the tangible state space that was solved.
    pub fn tangible_states(&self) -> usize {
        self.tangible_states
    }

    /// Convergence statistics of the CTMC solve behind this analysis
    /// (method, iterations, final residual) — the success-path numbers
    /// that used to exist only inside the solver's convergence error.
    pub fn solve_stats(&self) -> redeval_markov::SolveStats {
        self.solve_stats
    }
}

impl ServerParams {
    /// Convenience: builds, solves and aggregates this server's SRN.
    ///
    /// # Errors
    ///
    /// Propagates SRN construction/solve errors.
    pub fn analyze(&self) -> Result<ServerAnalysis, SrnError> {
        ServerAnalysis::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Durations;

    /// The paper's four servers (patch-duration parameters chosen per
    /// DESIGN.md so that patch cycles match Table V MTTRs).
    pub fn paper_servers() -> [ServerParams; 4] {
        [
            ServerParams::builder("dns").build(),
            ServerParams::builder("web")
                .service_patch(Durations::minutes(10.0), Durations::minutes(5.0))
                .os_patch(Durations::minutes(10.0), Durations::minutes(10.0))
                .build(),
            ServerParams::builder("app")
                .service_patch(Durations::minutes(15.0), Durations::minutes(5.0))
                .os_patch(Durations::minutes(30.0), Durations::minutes(10.0))
                .build(),
            ServerParams::builder("db")
                .service_patch(Durations::minutes(10.0), Durations::minutes(5.0))
                .os_patch(Durations::minutes(30.0), Durations::minutes(10.0))
                .build(),
        ]
    }

    #[test]
    fn lambda_eq_is_tau_p_for_all_servers() {
        for p in paper_servers() {
            let a = p.analyze().unwrap();
            assert!(
                (a.rates().lambda_eq - 1.0 / 720.0).abs() < 1e-15,
                "{}",
                p.name
            );
            assert!((a.rates().mttp() - 720.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table_v_recovery_rates_reproduced() {
        // Paper Table V: µ_eq per service.
        let expected = [
            ("dns", 1.49992),
            ("web", 1.71420),
            ("app", 0.99995),
            ("db", 1.09085),
        ];
        for (params, (name, mu)) in paper_servers().iter().zip(expected) {
            let a = params.analyze().unwrap();
            assert_eq!(a.name(), name);
            let rel = (a.rates().mu_eq - mu).abs() / mu;
            assert!(rel < 1e-3, "{name}: µ_eq {} vs paper {mu}", a.rates().mu_eq);
        }
    }

    #[test]
    fn table_v_mttr_reproduced() {
        let expected = [
            ("dns", 0.6667),
            ("web", 0.5834),
            ("app", 1.0001),
            ("db", 0.9167),
        ];
        for (params, (name, mttr)) in paper_servers().iter().zip(expected) {
            let a = params.analyze().unwrap();
            let rel = (a.rates().mttr() - mttr).abs() / mttr;
            assert!(
                rel < 1e-3,
                "{name}: MTTR {} vs paper {mttr}",
                a.rates().mttr()
            );
        }
    }

    #[test]
    fn dns_probabilities_match_paper_example() {
        // Paper Section III-D2: p_dns_prrb ≈ 0.00011563,
        // p_dns_pd ≈ 0.00092506.
        let a = paper_servers()[0].analyze().unwrap();
        assert!(
            (a.p_ready_reboot() - 0.00011563).abs() < 2e-6,
            "p_prrb = {}",
            a.p_ready_reboot()
        );
        assert!(
            (a.p_patch_down() - 0.00092506).abs() < 2e-5,
            "p_pd = {}",
            a.p_patch_down()
        );
    }

    #[test]
    fn solve_stats_are_exposed_and_deterministic() {
        let params = ServerParams::builder("dns").build();
        let a = params.analyze().unwrap();
        let s = a.solve_stats();
        assert_eq!(s.states, a.tangible_states());
        assert!(s.residual.is_finite() && s.residual >= 0.0);
        assert_eq!(s, params.analyze().unwrap().solve_stats());
        // Relabelling copies the stats unchanged.
        assert_eq!(a.renamed("other").solve_stats(), s);
    }

    #[test]
    fn probability_mass_accounted() {
        let a = paper_servers()[2].analyze().unwrap();
        let total = a.availability() + a.p_patch_down() + a.p_failed();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    #[test]
    fn longer_patches_mean_lower_mu_eq() {
        let quick = ServerParams::builder("q")
            .os_patch(Durations::minutes(5.0), Durations::minutes(5.0))
            .build()
            .analyze()
            .unwrap();
        let slow = ServerParams::builder("s")
            .os_patch(Durations::minutes(120.0), Durations::minutes(5.0))
            .build()
            .analyze()
            .unwrap();
        assert!(quick.rates().mu_eq > slow.rates().mu_eq);
    }

    #[test]
    fn flow_balance_equals_equation_2_in_full_scenario() {
        // µ_eq computed by flow balance must equal the paper's explicit
        // Equation (2) form in the full scenario.
        for p in paper_servers() {
            let a = p.analyze().unwrap();
            let eq2 = p.svc_reboot_patch.rate_per_hour() * a.p_ready_reboot() / a.p_patch_down();
            let rel = (a.rates().mu_eq - eq2).abs() / eq2;
            assert!(
                rel < 1e-9,
                "{}: flow {} vs eq2 {}",
                a.name(),
                a.rates().mu_eq,
                eq2
            );
        }
    }

    #[test]
    fn partial_scenarios_match_their_cycles() {
        let params = ServerParams::builder("dns").build();
        for scenario in [
            PatchScenario::Full,
            PatchScenario::ServiceOnly,
            PatchScenario::OsOnly,
            PatchScenario::NoReboot,
        ] {
            let a = ServerAnalysis::of_scenario(&params, scenario).unwrap();
            let cycle = scenario.cycle_hours(&params);
            let rel = (a.rates().mttr() - cycle).abs() / cycle;
            assert!(
                rel < 0.02,
                "{scenario:?}: MTTR {} vs cycle {cycle}",
                a.rates().mttr()
            );
        }
    }

    #[test]
    fn scenario_ordering_service_only_is_fastest() {
        let params = ServerParams::builder("dns").build();
        let mttr = |s| {
            ServerAnalysis::of_scenario(&params, s)
                .unwrap()
                .rates()
                .mttr()
        };
        // DNS durations: svc 5, os 20, βos 10, βsvc 5 (minutes).
        let service_only = mttr(PatchScenario::ServiceOnly); // 10 min
        let no_reboot = mttr(PatchScenario::NoReboot); // 25 min
        let os_only = mttr(PatchScenario::OsOnly); // 35 min
        let full = mttr(PatchScenario::Full); // 40 min
        assert!(service_only < no_reboot);
        assert!(no_reboot < os_only);
        assert!(os_only < full);
    }

    #[test]
    fn scenario_availability_ordering() {
        // Shorter patch cycles give strictly higher availability.
        let params = ServerParams::builder("dns").build();
        let avail = |s| {
            ServerAnalysis::of_scenario(&params, s)
                .unwrap()
                .availability()
        };
        assert!(avail(PatchScenario::ServiceOnly) > avail(PatchScenario::Full));
        assert!(avail(PatchScenario::NoReboot) > avail(PatchScenario::Full));
    }

    #[test]
    fn two_state_down_probability_close_to_exact() {
        // The aggregation should reproduce the patch-downtime fraction.
        for p in paper_servers() {
            let a = p.analyze().unwrap();
            let r = a.rates();
            // The two-state abstraction's down probability λ/(λ+µ).
            let approx = r.lambda_eq / (r.lambda_eq + r.mu_eq);
            let exact = a.p_patch_down();
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.02, "{}: {approx} vs {exact}", a.name());
        }
    }
}
