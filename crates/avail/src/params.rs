//! Server rate parameters (the paper's Table IV inputs).

use std::fmt;

/// A mean duration, convertible to an exponential rate per hour.
///
/// All availability models in this workspace use **hours** as the time
/// unit, like the paper's Table IV/V.
///
/// # Examples
///
/// ```
/// use redeval_avail::Durations;
///
/// assert_eq!(Durations::minutes(30.0).as_hours(), 0.5);
/// assert_eq!(Durations::hours(2.0).rate_per_hour(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Durations {
    hours: f64,
}

impl Durations {
    /// A mean duration in hours.
    ///
    /// # Panics
    ///
    /// Panics for non-finite or non-positive values.
    pub fn hours(h: f64) -> Self {
        assert!(
            h.is_finite() && h > 0.0,
            "duration must be positive, got {h}"
        );
        Durations { hours: h }
    }

    /// A mean duration in minutes.
    ///
    /// # Panics
    ///
    /// Panics for non-finite or non-positive values.
    pub fn minutes(m: f64) -> Self {
        Durations::hours(m / 60.0)
    }

    /// A mean duration in days.
    ///
    /// # Panics
    ///
    /// Panics for non-finite or non-positive values.
    pub fn days(d: f64) -> Self {
        Durations::hours(d * 24.0)
    }

    /// The mean in hours.
    pub fn as_hours(self) -> f64 {
        self.hours
    }

    /// The exponential rate `1/mean` per hour.
    pub fn rate_per_hour(self) -> f64 {
        1.0 / self.hours
    }
}

impl fmt::Display for Durations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hours < 1.0 {
            write!(f, "{:.1} min", self.hours * 60.0)
        } else {
            write!(f, "{:.4} h", self.hours)
        }
    }
}

/// Complete rate parameterization of one server (the paper's Table IV).
///
/// Build with [`ServerParams::builder`]. All durations are means of
/// exponential distributions, matching the paper's SRN assumptions.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerParams {
    /// Service name (diagnostics and table output).
    pub name: String,
    /// Mean time between hardware failures (1/λ_hw).
    pub hw_mtbf: Durations,
    /// Mean hardware repair time (1/µ_hw).
    pub hw_repair: Durations,
    /// Mean time between OS failures (1/λ_os).
    pub os_mtbf: Durations,
    /// Mean OS repair time (1/µ_os).
    pub os_repair: Durations,
    /// Mean OS patch duration (1/α_os).
    pub os_patch: Durations,
    /// Mean OS reboot after patch (1/β_os).
    pub os_reboot_patch: Durations,
    /// Mean OS reboot after failure (1/δ_os).
    pub os_reboot_failure: Durations,
    /// Mean time between service failures (1/λ_svc).
    pub svc_mtbf: Durations,
    /// Mean service repair time (1/µ_svc).
    pub svc_repair: Durations,
    /// Mean application patch duration (1/α_svc).
    pub svc_patch: Durations,
    /// Mean service reboot after patch (1/β_svc).
    pub svc_reboot_patch: Durations,
    /// Mean service reboot after failure (1/δ_svc).
    pub svc_reboot_failure: Durations,
    /// Mean patch interval (1/τ_p, e.g. 720 h for monthly patching).
    pub patch_interval: Durations,
}

impl ServerParams {
    /// Starts a builder with the given service name.
    pub fn builder(name: impl Into<String>) -> ServerParamsBuilder {
        ServerParamsBuilder::new(name)
    }

    /// The thirteen durations in declaration order, `hw_mtbf` to
    /// `patch_interval`.
    pub fn durations(&self) -> [Durations; 13] {
        [
            self.hw_mtbf,
            self.hw_repair,
            self.os_mtbf,
            self.os_repair,
            self.os_patch,
            self.os_reboot_patch,
            self.os_reboot_failure,
            self.svc_mtbf,
            self.svc_repair,
            self.svc_patch,
            self.svc_reboot_patch,
            self.svc_reboot_failure,
            self.patch_interval,
        ]
    }

    /// The full expected patch-cycle downtime: application patch + OS patch
    /// + OS reboot + service reboot (the paper's per-service MTTR).
    pub fn patch_cycle(&self) -> Durations {
        Durations::hours(
            self.svc_patch.as_hours()
                + self.os_patch.as_hours()
                + self.os_reboot_patch.as_hours()
                + self.svc_reboot_patch.as_hours(),
        )
    }
}

/// Builder for [`ServerParams`].
///
/// Every field has a sensible enterprise-grade default (the paper's
/// Table IV values where given); override what differs.
#[derive(Debug, Clone)]
pub struct ServerParamsBuilder {
    params: ServerParams,
}

impl ServerParamsBuilder {
    /// Creates a builder primed with the paper's DNS-server defaults.
    pub fn new(name: impl Into<String>) -> Self {
        ServerParamsBuilder {
            params: ServerParams {
                name: name.into(),
                hw_mtbf: Durations::hours(87_600.0),
                hw_repair: Durations::hours(1.0),
                os_mtbf: Durations::hours(1440.0),
                os_repair: Durations::hours(1.0),
                os_patch: Durations::minutes(20.0),
                os_reboot_patch: Durations::minutes(10.0),
                os_reboot_failure: Durations::minutes(10.0),
                svc_mtbf: Durations::hours(336.0),
                svc_repair: Durations::minutes(30.0),
                svc_patch: Durations::minutes(5.0),
                svc_reboot_patch: Durations::minutes(5.0),
                svc_reboot_failure: Durations::minutes(5.0),
                patch_interval: Durations::hours(720.0),
            },
        }
    }

    /// Sets hardware MTBF and repair time.
    pub fn hardware(mut self, mtbf: Durations, repair: Durations) -> Self {
        self.params.hw_mtbf = mtbf;
        self.params.hw_repair = repair;
        self
    }

    /// Sets OS MTBF and repair time.
    pub fn os_failure(mut self, mtbf: Durations, repair: Durations) -> Self {
        self.params.os_mtbf = mtbf;
        self.params.os_repair = repair;
        self
    }

    /// Sets OS patch duration and reboot-after-patch duration.
    pub fn os_patch(mut self, patch: Durations, reboot: Durations) -> Self {
        self.params.os_patch = patch;
        self.params.os_reboot_patch = reboot;
        self
    }

    /// Sets the OS reboot-after-failure duration.
    pub fn os_reboot_after_failure(mut self, reboot: Durations) -> Self {
        self.params.os_reboot_failure = reboot;
        self
    }

    /// Sets service MTBF and repair time.
    pub fn service_failure(mut self, mtbf: Durations, repair: Durations) -> Self {
        self.params.svc_mtbf = mtbf;
        self.params.svc_repair = repair;
        self
    }

    /// Sets application patch duration and service reboot-after-patch.
    pub fn service_patch(mut self, patch: Durations, reboot: Durations) -> Self {
        self.params.svc_patch = patch;
        self.params.svc_reboot_patch = reboot;
        self
    }

    /// Sets the service reboot-after-failure duration.
    pub fn service_reboot_after_failure(mut self, reboot: Durations) -> Self {
        self.params.svc_reboot_failure = reboot;
        self
    }

    /// Sets the patch interval (1/τ_p).
    pub fn patch_interval(mut self, interval: Durations) -> Self {
        self.params.patch_interval = interval;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ServerParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(Durations::minutes(90.0).as_hours(), 1.5);
        assert_eq!(Durations::days(2.0).as_hours(), 48.0);
        assert!((Durations::minutes(5.0).rate_per_hour() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Durations::minutes(30.0).to_string(), "30.0 min");
        assert_eq!(Durations::hours(720.0).to_string(), "720.0000 h");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        let _ = Durations::hours(0.0);
    }

    #[test]
    fn dns_patch_cycle_is_40_minutes() {
        let p = ServerParams::builder("dns").build();
        assert!((p.patch_cycle().as_hours() - 40.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn builder_overrides() {
        let p = ServerParams::builder("web")
            .service_patch(Durations::minutes(10.0), Durations::minutes(5.0))
            .os_patch(Durations::minutes(10.0), Durations::minutes(10.0))
            .build();
        assert_eq!(p.name, "web");
        assert!((p.patch_cycle().as_hours() - 35.0 / 60.0).abs() < 1e-12);
    }
}
