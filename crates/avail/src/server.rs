//! The lower-layer SRN of one server (the paper's Figure 5).
//!
//! Four sub-models share one net:
//!
//! * **hardware** — `Phwup ⇄ Phwd` via `Thwd`/`Thwup`;
//! * **OS** — up, down-due-to-hardware, failed, ready-to-patch and patched
//!   places with the Table III guards;
//! * **service** — the same structure plus a ready-to-reboot place
//!   (`Psvcrrb`) entered when the OS patch completes;
//! * **patch clock** — `Pclock → Ppolicy → Ptrigger → Pclock`, firing once
//!   per patch interval and resetting when the OS patch completes.
//!
//! The paper's failure-freeze assumptions ("hardware will not fail during
//! the patch period", "no software failures during the patch period",
//! "OS/applications will not fail when ready to patch") are realized as
//! additional guards on the three failure transitions.

use redeval_srn::{Marking, PlaceId, Srn, TransId};

use crate::params::ServerParams;

/// Which steps the monthly patch round performs (the paper's Section V
/// "SRN models" extension: not every patch touches both layers or needs a
/// reboot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PatchScenario {
    /// The paper's default: application patch → OS patch → OS reboot →
    /// service reboot.
    #[default]
    Full,
    /// Only application vulnerabilities to patch: application patch →
    /// service reboot (no OS steps).
    ServiceOnly,
    /// Only OS vulnerabilities to patch: the service stops, the OS is
    /// patched and rebooted, the service reboots (no application patch).
    OsOnly,
    /// Both patches applied but neither layer needs a reboot.
    NoReboot,
}

impl PatchScenario {
    /// The expected patch-cycle downtime under this scenario.
    pub fn cycle_hours(self, params: &ServerParams) -> f64 {
        let a_svc = params.svc_patch.as_hours();
        let a_os = params.os_patch.as_hours();
        let b_os = params.os_reboot_patch.as_hours();
        let b_svc = params.svc_reboot_patch.as_hours();
        match self {
            PatchScenario::Full => a_svc + a_os + b_os + b_svc,
            PatchScenario::ServiceOnly => a_svc + b_svc,
            PatchScenario::OsOnly => a_os + b_os + b_svc,
            PatchScenario::NoReboot => a_svc + a_os,
        }
    }
}

/// The named places of a server net, for use in reward and guard
/// predicates.
#[derive(Debug, Clone, Copy)]
pub struct ServerPlaces {
    /// Hardware up.
    pub hw_up: PlaceId,
    /// Hardware down.
    pub hw_down: PlaceId,
    /// OS up.
    pub os_up: PlaceId,
    /// OS down due to hardware failure.
    pub os_down: PlaceId,
    /// OS failed (software).
    pub os_failed: PlaceId,
    /// OS ready to patch.
    pub os_ready_patch: PlaceId,
    /// OS patched (awaiting reboot).
    pub os_patched: PlaceId,
    /// Service up.
    pub svc_up: PlaceId,
    /// Service down due to hardware/OS failure.
    pub svc_down: PlaceId,
    /// Service failed (software).
    pub svc_failed: PlaceId,
    /// Service ready to patch.
    pub svc_ready_patch: PlaceId,
    /// Service patched (application patch finished).
    pub svc_patched: PlaceId,
    /// Service ready to reboot (OS patch finished).
    pub svc_ready_reboot: PlaceId,
    /// Patch clock armed.
    pub clock: PlaceId,
    /// Patch clock fired, waiting for the service to be up.
    pub policy: PlaceId,
    /// Patch trigger raised.
    pub trigger: PlaceId,
}

impl ServerPlaces {
    /// Whether the marking is anywhere in the patch sequence
    /// (the paper's "patch period").
    pub fn patch_in_progress(&self, m: &Marking) -> bool {
        m.tokens(self.svc_ready_patch) == 1
            || m.tokens(self.svc_patched) == 1
            || m.tokens(self.svc_ready_reboot) == 1
            || m.tokens(self.os_ready_patch) == 1
            || m.tokens(self.os_patched) == 1
    }

    /// Whether the service is up in the marking.
    pub fn service_up(&self, m: &Marking) -> bool {
        m.tokens(self.svc_up) == 1
    }

    /// Whether the service is down *because of patching*
    /// (the paper's `p_svc_pd` states: ready-to-patch, patched,
    /// ready-to-reboot).
    pub fn down_due_to_patch(&self, m: &Marking) -> bool {
        m.tokens(self.svc_ready_patch) == 1
            || m.tokens(self.svc_patched) == 1
            || m.tokens(self.svc_ready_reboot) == 1
    }

    /// Whether the marking is the exit state of the patch cycle: service
    /// ready to reboot with hardware and OS back up (the paper's
    /// `p_svc_prrb`).
    pub fn ready_to_reboot(&self, m: &Marking) -> bool {
        m.tokens(self.svc_ready_reboot) == 1
            && m.tokens(self.hw_up) == 1
            && m.tokens(self.os_up) == 1
    }
}

/// The named transitions of a server net.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // names mirror the paper's Figure 5 one-to-one
pub struct ServerTransitions {
    pub t_hw_down: TransId,
    pub t_hw_up: TransId,
    pub t_os_down: TransId,
    pub t_os_down_reboot: TransId,
    pub t_os_fail: TransId,
    pub t_os_fail_up: TransId,
    pub t_os_patch_trigger: TransId,
    pub t_os_patch: TransId,
    pub t_os_rp_down: TransId,
    pub t_os_p_down: TransId,
    pub t_os_patch_reboot: TransId,
    pub t_svc_down: TransId,
    pub t_svc_down_reboot: TransId,
    pub t_svc_fail: TransId,
    pub t_svc_fail_up: TransId,
    pub t_svc_patch_trigger: TransId,
    pub t_svc_patch: TransId,
    pub t_svc_rp_down: TransId,
    pub t_svc_ready_reboot: TransId,
    pub t_svc_rrb_down: TransId,
    pub t_svc_patch_reboot: TransId,
    pub t_interval: TransId,
    pub t_policy: TransId,
    pub t_reset: TransId,
}

/// The SRN of one server, built from [`ServerParams`].
///
/// # Examples
///
/// ```
/// use redeval_avail::{ServerModel, ServerParams};
///
/// # fn main() -> Result<(), redeval_srn::SrnError> {
/// let model = ServerModel::build(&ServerParams::builder("dns").build());
/// let solved = model.net().solve()?;
/// let p = model.places();
/// let availability = solved.probability(|m| p.service_up(m));
/// assert!(availability > 0.99);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServerModel {
    net: Srn,
    places: ServerPlaces,
    transitions: ServerTransitions,
    params: ServerParams,
    scenario: PatchScenario,
}

impl ServerModel {
    /// Builds the Figure-5 net for one server (the paper's full
    /// application-patch → OS-patch → reboot scenario).
    pub fn build(params: &ServerParams) -> Self {
        Self::build_scenario(params, PatchScenario::Full)
    }

    /// Builds the server net for a partial patch scenario
    /// (the paper's Section V extension).
    pub fn build_scenario(params: &ServerParams, scenario: PatchScenario) -> Self {
        let mut net = Srn::new(format!("server:{}", params.name));
        let (places, transitions) = add_server(&mut net, params, "", scenario);
        ServerModel {
            net,
            places,
            transitions,
            params: params.clone(),
            scenario,
        }
    }

    /// The patch scenario the net was built for.
    pub fn scenario(&self) -> PatchScenario {
        self.scenario
    }

    /// The underlying net.
    pub fn net(&self) -> &Srn {
        &self.net
    }

    /// The place handles.
    pub fn places(&self) -> &ServerPlaces {
        &self.places
    }

    /// The transition handles.
    pub fn transitions(&self) -> &ServerTransitions {
        &self.transitions
    }

    /// The parameters the model was built from.
    pub fn params(&self) -> &ServerParams {
        &self.params
    }
}

/// Adds one server's Figure-5 sub-net to `net` — the 16 places, then
/// the transitions of the hardware, OS, service and patch-clock
/// sub-models — and returns its handles. `prefix` namespaces every place
/// and transition name so several servers can share one net (`""` gives
/// `Phwup`, `"web1:"` gives `web1:Phwup`; see [`crate::CompositeNetwork`]).
pub(crate) fn add_server(
    net: &mut Srn,
    params: &ServerParams,
    prefix: &str,
    scenario: PatchScenario,
) -> (ServerPlaces, ServerTransitions) {
    // -------- places (names match the paper) --------
    let mut place = |name: &str, tokens| net.add_place(format!("{prefix}{name}"), tokens);
    let places = ServerPlaces {
        hw_up: place("Phwup", 1),
        hw_down: place("Phwd", 0),
        os_up: place("Posup", 1),
        os_down: place("Posd", 0),
        os_failed: place("Posfd", 0),
        os_ready_patch: place("Posrp", 0),
        os_patched: place("Posp", 0),
        svc_up: place("Psvcup", 1),
        svc_down: place("Psvcd", 0),
        svc_failed: place("Psvcfd", 0),
        svc_ready_patch: place("Psvcrp", 0),
        svc_patched: place("Psvcp", 0),
        svc_ready_reboot: place("Psvcrrb", 0),
        clock: place("Pclock", 1),
        policy: place("Ppolicy", 0),
        trigger: place("Ptrigger", 0),
    };
    let ServerPlaces {
        hw_up,
        hw_down,
        os_up,
        os_down,
        os_failed,
        os_ready_patch,
        os_patched,
        svc_up,
        svc_down,
        svc_failed,
        svc_ready_patch,
        svc_patched,
        svc_ready_reboot,
        clock,
        policy,
        trigger,
    } = places;
    // Failure-freeze guard: the paper assumes no hardware/OS/service
    // failures while any patch step is in progress.
    let not_patching = move |m: &Marking| !places.patch_in_progress(m);

    // -------- hardware sub-model (Fig. 5a) --------
    let t_hw_down = net.add_timed(format!("{prefix}Thwd"), params.hw_mtbf.rate_per_hour());
    net.add_move(t_hw_down, hw_up, hw_down).expect("valid ids");
    net.set_guard(t_hw_down, not_patching).expect("valid id");
    let t_hw_up = net.add_timed(format!("{prefix}Thwup"), params.hw_repair.rate_per_hour());
    net.add_move(t_hw_up, hw_down, hw_up).expect("valid ids");

    // -------- OS sub-model (Fig. 5b) --------
    // gosd: hardware failure propagates immediately.
    let t_os_down = net.add_immediate(format!("{prefix}Tosd"));
    net.add_move(t_os_down, os_up, os_down).expect("valid ids");
    net.set_guard(t_os_down, move |m| m.tokens(hw_down) == 1)
        .expect("valid id");
    // gosdrb: reboot after hardware repair.
    let t_os_down_reboot = net.add_timed(
        format!("{prefix}Tosdrb"),
        params.os_reboot_failure.rate_per_hour(),
    );
    net.add_move(t_os_down_reboot, os_down, os_up)
        .expect("valid ids");
    net.set_guard(t_os_down_reboot, move |m| m.tokens(hw_up) == 1)
        .expect("valid id");
    // OS software failure (frozen during patch).
    let t_os_fail = net.add_timed(format!("{prefix}Tosfd"), params.os_mtbf.rate_per_hour());
    net.add_move(t_os_fail, os_up, os_failed)
        .expect("valid ids");
    net.set_guard(t_os_fail, not_patching).expect("valid id");
    // gosfup: repair needs hardware up.
    let t_os_fail_up = net.add_timed(format!("{prefix}Tosfup"), params.os_repair.rate_per_hour());
    net.add_move(t_os_fail_up, os_failed, os_up)
        .expect("valid ids");
    net.set_guard(t_os_fail_up, move |m| m.tokens(hw_up) == 1)
        .expect("valid id");
    // gosptrig: OS patch starts when the application patch finished.
    // In the ServiceOnly scenario there is no OS patch: the guard is
    // constantly false and the OS patch places stay unreachable.
    let t_os_patch_trigger = net.add_immediate(format!("{prefix}Tosptrig"));
    net.add_move(t_os_patch_trigger, os_up, os_ready_patch)
        .expect("valid ids");
    if scenario == PatchScenario::ServiceOnly {
        net.set_guard(t_os_patch_trigger, |_| false)
            .expect("valid id");
    } else {
        net.set_guard(t_os_patch_trigger, move |m| m.tokens(svc_patched) == 1)
            .expect("valid id");
    }
    // gosp: patching needs hardware up.
    let t_os_patch = net.add_timed(format!("{prefix}Tosp"), params.os_patch.rate_per_hour());
    net.add_move(t_os_patch, os_ready_patch, os_patched)
        .expect("valid ids");
    net.set_guard(t_os_patch, move |m| m.tokens(hw_up) == 1)
        .expect("valid id");
    // gosrpd / gospd: hardware failure while patching (kept for
    // structural fidelity with Table III; unreachable under the
    // freeze assumption).
    let t_os_rp_down = net.add_immediate(format!("{prefix}Tosrpd"));
    net.add_move(t_os_rp_down, os_ready_patch, os_down)
        .expect("valid ids");
    net.set_guard(t_os_rp_down, move |m| m.tokens(hw_down) == 1)
        .expect("valid id");
    let t_os_p_down = net.add_immediate(format!("{prefix}Tospd"));
    net.add_move(t_os_p_down, os_patched, os_down)
        .expect("valid ids");
    net.set_guard(t_os_p_down, move |m| m.tokens(hw_down) == 1)
        .expect("valid id");
    // gosprb: reboot after patch needs hardware up. In the NoReboot
    // scenario the "reboot" is instantaneous (lowest immediate
    // priority so Tsvcrrb/Treset observe #Posp == 1 first).
    let t_os_patch_reboot = if scenario == PatchScenario::NoReboot {
        net.add_immediate_weighted(format!("{prefix}Tosprb"), 1.0, 0)
    } else {
        net.add_timed(
            format!("{prefix}Tosprb"),
            params.os_reboot_patch.rate_per_hour(),
        )
    };
    net.add_move(t_os_patch_reboot, os_patched, os_up)
        .expect("valid ids");
    net.set_guard(t_os_patch_reboot, move |m| m.tokens(hw_up) == 1)
        .expect("valid id");

    // -------- service sub-model (Fig. 5c) --------
    // gsvcd: hardware or OS failure propagates immediately.
    let hw_or_os_down = move |m: &Marking| m.tokens(hw_down) == 1 || m.tokens(os_failed) == 1;
    let hw_and_os_up = move |m: &Marking| m.tokens(hw_up) == 1 && m.tokens(os_up) == 1;
    let t_svc_down = net.add_immediate(format!("{prefix}Tsvcd"));
    net.add_move(t_svc_down, svc_up, svc_down)
        .expect("valid ids");
    net.set_guard(t_svc_down, hw_or_os_down).expect("valid id");
    // gsvcdrb: reboot after failure once hardware and OS are up.
    let t_svc_down_reboot = net.add_timed(
        format!("{prefix}Tsvcdrb"),
        params.svc_reboot_failure.rate_per_hour(),
    );
    net.add_move(t_svc_down_reboot, svc_down, svc_up)
        .expect("valid ids");
    net.set_guard(t_svc_down_reboot, hw_and_os_up)
        .expect("valid id");
    // Service software failure (frozen during patch).
    let t_svc_fail = net.add_timed(format!("{prefix}Tsvcfd"), params.svc_mtbf.rate_per_hour());
    net.add_move(t_svc_fail, svc_up, svc_failed)
        .expect("valid ids");
    net.set_guard(t_svc_fail, not_patching).expect("valid id");
    // gsvcfup.
    let t_svc_fail_up = net.add_timed(
        format!("{prefix}Tsvcfup"),
        params.svc_repair.rate_per_hour(),
    );
    net.add_move(t_svc_fail_up, svc_failed, svc_up)
        .expect("valid ids");
    net.set_guard(t_svc_fail_up, hw_and_os_up)
        .expect("valid id");
    // gsvcptrig: the clock trigger starts the application patch.
    let t_svc_patch_trigger = net.add_immediate(format!("{prefix}Tsvcptrig"));
    net.add_move(t_svc_patch_trigger, svc_up, svc_ready_patch)
        .expect("valid ids");
    net.set_guard(t_svc_patch_trigger, move |m| m.tokens(trigger) == 1)
        .expect("valid id");
    // gsvcp. In the OsOnly scenario there is no application patch:
    // the step completes instantaneously.
    let t_svc_patch = if scenario == PatchScenario::OsOnly {
        net.add_immediate(format!("{prefix}Tsvcp"))
    } else {
        net.add_timed(format!("{prefix}Tsvcp"), params.svc_patch.rate_per_hour())
    };
    net.add_move(t_svc_patch, svc_ready_patch, svc_patched)
        .expect("valid ids");
    net.set_guard(t_svc_patch, hw_and_os_up).expect("valid id");
    // gsvcrpd: hardware/OS failure while ready to patch (structural).
    let t_svc_rp_down = net.add_immediate(format!("{prefix}Tsvcrpd"));
    net.add_move(t_svc_rp_down, svc_ready_patch, svc_down)
        .expect("valid ids");
    net.set_guard(t_svc_rp_down, hw_or_os_down)
        .expect("valid id");
    // gsvcrrb: OS patch completion readies the service reboot.
    // (ServiceOnly skips the OS patch, so the reboot is ready as soon
    // as the application patch finishes.) Priority 2 so the patched
    // state is observed before Treset/Tosprb consume it.
    let t_svc_ready_reboot = net.add_immediate_weighted(format!("{prefix}Tsvcrrb"), 1.0, 2);
    net.add_move(t_svc_ready_reboot, svc_patched, svc_ready_reboot)
        .expect("valid ids");
    if scenario == PatchScenario::ServiceOnly {
        net.set_guard(t_svc_ready_reboot, |_| true)
            .expect("valid id");
    } else {
        net.set_guard(t_svc_ready_reboot, move |m| m.tokens(os_patched) == 1)
            .expect("valid id");
    }
    // gsvcrrbd (structural).
    let t_svc_rrb_down = net.add_immediate(format!("{prefix}Tsvcrrbd"));
    net.add_move(t_svc_rrb_down, svc_ready_reboot, svc_down)
        .expect("valid ids");
    net.set_guard(t_svc_rrb_down, hw_or_os_down)
        .expect("valid id");
    // gsvcprb: service reboot after the OS reboot finished
    // (instantaneous in the NoReboot scenario).
    let t_svc_patch_reboot = if scenario == PatchScenario::NoReboot {
        net.add_immediate_weighted(format!("{prefix}Tsvcprb"), 1.0, 0)
    } else {
        net.add_timed(
            format!("{prefix}Tsvcprb"),
            params.svc_reboot_patch.rate_per_hour(),
        )
    };
    net.add_move(t_svc_patch_reboot, svc_ready_reboot, svc_up)
        .expect("valid ids");
    net.set_guard(t_svc_patch_reboot, hw_and_os_up)
        .expect("valid id");

    // -------- patch clock (Fig. 5d) --------
    // ginterval: the clock only advances while no patch is in progress.
    let t_interval = net.add_timed(
        format!("{prefix}Tinterval"),
        params.patch_interval.rate_per_hour(),
    );
    net.add_move(t_interval, clock, policy).expect("valid ids");
    net.set_guard(t_interval, move |m| {
        m.tokens(svc_up) == 1 || m.tokens(svc_down) == 1 || m.tokens(svc_failed) == 1
    })
    .expect("valid id");
    // gpolicy: patch only starts when the service is up.
    let t_policy = net.add_immediate(format!("{prefix}Tpolicy"));
    net.add_move(t_policy, policy, trigger).expect("valid ids");
    net.set_guard(t_policy, move |m| m.tokens(svc_up) == 1)
        .expect("valid id");
    // greset: the clock re-arms when the OS patch completes (or, in
    // the ServiceOnly scenario, when the service patch does).
    let t_reset = net.add_immediate_weighted(format!("{prefix}Treset"), 1.0, 1);
    net.add_move(t_reset, trigger, clock).expect("valid ids");
    if scenario == PatchScenario::ServiceOnly {
        net.set_guard(t_reset, move |m| m.tokens(svc_ready_reboot) == 1)
            .expect("valid id");
    } else {
        net.set_guard(t_reset, move |m| m.tokens(os_patched) == 1)
            .expect("valid id");
    }

    let transitions = ServerTransitions {
        t_hw_down,
        t_hw_up,
        t_os_down,
        t_os_down_reboot,
        t_os_fail,
        t_os_fail_up,
        t_os_patch_trigger,
        t_os_patch,
        t_os_rp_down,
        t_os_p_down,
        t_os_patch_reboot,
        t_svc_down,
        t_svc_down_reboot,
        t_svc_fail,
        t_svc_fail_up,
        t_svc_patch_trigger,
        t_svc_patch,
        t_svc_rp_down,
        t_svc_ready_reboot,
        t_svc_rrb_down,
        t_svc_patch_reboot,
        t_interval,
        t_policy,
        t_reset,
    };
    (places, transitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Durations;

    fn dns() -> ServerModel {
        ServerModel::build(&ServerParams::builder("dns").build())
    }

    #[test]
    fn structure_matches_paper() {
        let m = dns();
        assert_eq!(m.net().place_count(), 16);
        assert_eq!(m.net().transition_count(), 24);
        // All Table III guard-bearing transitions exist by name.
        for name in [
            "Tosd",
            "Tosdrb",
            "Tosfup",
            "Tosptrig",
            "Tosp",
            "Tosrpd",
            "Tospd",
            "Tosprb",
            "Tsvcd",
            "Tsvcdrb",
            "Tsvcfup",
            "Tsvcptrig",
            "Tsvcp",
            "Tsvcrpd",
            "Tsvcrrb",
            "Tsvcrrbd",
            "Tsvcprb",
            "Tinterval",
            "Tpolicy",
            "Treset",
        ] {
            assert!(m.net().find_transition(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn state_space_is_small_and_live() {
        let m = dns();
        let ss = m.net().state_space().unwrap();
        // The freeze assumptions keep the space compact.
        assert!(ss.len() < 64, "{} states", ss.len());
        assert!(ss.vanishing_count() > 0);
    }

    #[test]
    fn patch_sequence_is_reachable() {
        let m = dns();
        let ss = m.net().state_space().unwrap();
        let p = *m.places();
        let has = |pred: &dyn Fn(&Marking) -> bool| ss.tangible_markings().iter().any(pred);
        assert!(has(&|mk| mk.tokens(p.svc_ready_patch) == 1));
        assert!(has(
            &|mk| mk.tokens(p.svc_patched) == 1 && mk.tokens(p.os_ready_patch) == 1
        ));
        assert!(has(
            &|mk| mk.tokens(p.svc_ready_reboot) == 1 && mk.tokens(p.os_patched) == 1
        ));
        assert!(has(
            &|mk| mk.tokens(p.svc_ready_reboot) == 1 && mk.tokens(p.os_up) == 1
        ));
    }

    #[test]
    fn no_failures_during_patch_states() {
        let m = dns();
        let ss = m.net().state_space().unwrap();
        let p = *m.places();
        // In every patch-in-progress marking, hardware is up and the OS is
        // never in a failed state.
        for mk in ss.tangible_markings() {
            if p.patch_in_progress(mk) {
                assert_eq!(mk.tokens(p.hw_up), 1, "hw failed during patch: {mk}");
                assert_eq!(mk.tokens(p.os_failed), 0, "os failed during patch: {mk}");
                assert_eq!(mk.tokens(p.svc_failed), 0, "svc failed during patch: {mk}");
            }
        }
    }

    #[test]
    fn invariants_one_token_per_submodel() {
        let m = dns();
        let ss = m.net().state_space().unwrap();
        let p = *m.places();
        for mk in ss.tangible_markings() {
            assert_eq!(mk.tokens(p.hw_up) + mk.tokens(p.hw_down), 1);
            assert_eq!(
                mk.tokens(p.os_up)
                    + mk.tokens(p.os_down)
                    + mk.tokens(p.os_failed)
                    + mk.tokens(p.os_ready_patch)
                    + mk.tokens(p.os_patched),
                1
            );
            assert_eq!(
                mk.tokens(p.svc_up)
                    + mk.tokens(p.svc_down)
                    + mk.tokens(p.svc_failed)
                    + mk.tokens(p.svc_ready_patch)
                    + mk.tokens(p.svc_patched)
                    + mk.tokens(p.svc_ready_reboot),
                1
            );
            assert_eq!(
                mk.tokens(p.clock) + mk.tokens(p.policy) + mk.tokens(p.trigger),
                1
            );
        }
    }

    #[test]
    fn availability_is_high_but_below_one() {
        let m = dns();
        let solved = m.net().solve().unwrap();
        let p = *m.places();
        let a = solved.probability(|mk| p.service_up(mk));
        assert!(a > 0.99 && a < 1.0, "availability {a}");
    }

    #[test]
    fn four_submodel_invariants_found_structurally() {
        // The Farkas analysis proves the paper's four one-token sub-models
        // (hardware, OS, service, clock) without exploring any marking.
        let m = dns();
        let invs = m.net().place_invariants(100_000).expect("small net");
        assert_eq!(invs.len(), 4, "{invs:?}");
        assert_eq!(m.net().covered_by_invariants(100_000), Some(true));
        // Every invariant is 0/1-weighted and holds token count 1.
        let m0 = m.net().initial_marking();
        for inv in &invs {
            assert!(inv.iter().all(|&w| w <= 1));
            assert_eq!(redeval_srn::Srn::invariant_value(inv, &m0), 1);
        }
        // And each invariant stays at 1 on every reachable marking.
        let ss = m.net().state_space().unwrap();
        for inv in &invs {
            for mk in ss.tangible_markings() {
                assert_eq!(redeval_srn::Srn::invariant_value(inv, mk), 1);
            }
        }
    }

    #[test]
    fn scenario_nets_remain_invariant_covered() {
        for scenario in [
            PatchScenario::Full,
            PatchScenario::ServiceOnly,
            PatchScenario::OsOnly,
            PatchScenario::NoReboot,
        ] {
            let m = ServerModel::build_scenario(&ServerParams::builder("dns").build(), scenario);
            assert_eq!(
                m.net().covered_by_invariants(100_000),
                Some(true),
                "{scenario:?}"
            );
        }
    }

    #[test]
    fn faster_patches_increase_availability() {
        let slow = ServerModel::build(
            &ServerParams::builder("slow")
                .service_patch(Durations::minutes(60.0), Durations::minutes(5.0))
                .build(),
        );
        let fast = ServerModel::build(
            &ServerParams::builder("fast")
                .service_patch(Durations::minutes(1.0), Durations::minutes(5.0))
                .build(),
        );
        let pa = |m: &ServerModel| {
            let solved = m.net().solve().unwrap();
            let p = *m.places();
            solved.probability(move |mk| p.service_up(mk))
        };
        assert!(pa(&fast) > pa(&slow));
    }
}
