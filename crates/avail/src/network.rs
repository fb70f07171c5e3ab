//! The upper-layer network availability model (the paper's Figure 4) and
//! the capacity-oriented availability reward (Table VI).

use redeval_markov::SolveError;
use redeval_srn::{PlaceId, Srn, SrnError};

use crate::aggregate::AggregatedRates;

/// One redundant tier: `count` identical servers whose patch behaviour is
/// the two-state abstraction [`AggregatedRates`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// Tier name (e.g. `"web"`).
    pub name: String,
    /// Number of redundant servers (≥ 1).
    pub count: u32,
    /// Aggregated patch/recovery rates from the lower-layer model.
    pub rates: AggregatedRates,
}

impl Tier {
    /// Creates a tier.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero (a tier must have at least one server).
    pub fn new(name: impl Into<String>, count: u32, rates: AggregatedRates) -> Self {
        assert!(count >= 1, "a tier needs at least one server");
        Tier {
            name: name.into(),
            count,
            rates,
        }
    }
}

/// The steady-state measures of one network, from
/// [`NetworkModel::measures`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkMeasures {
    /// Capacity-oriented availability ([`NetworkModel::coa`]).
    pub coa: f64,
    /// Classical availability ([`NetworkModel::availability`]).
    pub availability: f64,
    /// Expected running servers ([`NetworkModel::expected_up_servers`]).
    pub expected_up: f64,
}

impl NetworkMeasures {
    /// The measures of a network of independent tiers, from each tier's
    /// steady-state distribution of down servers: `dists[i][k]` is the
    /// probability that `k` of tier `i`'s `dists[i].len() − 1` servers are
    /// down ([`AggregatedRates::down_distribution`]).
    ///
    /// Up to 2²⁰ joint states this is one pass over them; above, the
    /// algebraically identical factored forms.
    ///
    /// # Panics
    ///
    /// Panics when `dists` is empty or a tier has no server (a
    /// distribution shorter than 2).
    pub fn from_down_distributions(dists: &[&[f64]]) -> NetworkMeasures {
        assert!(!dists.is_empty(), "at least one tier required");
        assert!(
            dists.iter().all(|d| d.len() >= 2),
            "a tier needs at least one server"
        );
        let total: u32 = dists.iter().map(|d| servers(d)).sum();
        if !factored(dists) {
            return enumerate(dists, total);
        }
        let moments: Vec<_> = dists.iter().map(|dist| tier_moments(dist)).collect();
        NetworkMeasures {
            coa: coa_factored(&moments, total),
            availability: moments.iter().map(|&(p, _, _)| p).product(),
            // `E[Σᵢ upᵢ]` is the sum of per-tier means.
            expected_up: moments.iter().map(|&(_, _, mean)| mean).sum(),
        }
    }
}

/// The composed network model: independent per-tier birth–death processes
/// (the paper's marking-dependent `λ_eq·#Psvcup` patch transitions), with
/// reward measures evaluated either in product form or through an explicit
/// SRN.
///
/// # Examples
///
/// ```
/// use redeval_avail::{AggregatedRates, NetworkModel, Tier};
///
/// # fn main() -> Result<(), redeval_markov::SolveError> {
/// let r = AggregatedRates { lambda_eq: 1.0 / 720.0, mu_eq: 1.5 };
/// let net = NetworkModel::new(vec![
///     Tier::new("dns", 1, r),
///     Tier::new("web", 2, r),
/// ]);
/// let coa = net.coa()?;
/// assert!(coa > 0.99 && coa < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    tiers: Vec<Tier>,
}

impl NetworkModel {
    /// Creates a network model from its tiers.
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is empty.
    pub fn new(tiers: Vec<Tier>) -> Self {
        assert!(!tiers.is_empty(), "at least one tier required");
        NetworkModel { tiers }
    }

    /// The tiers.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Total number of servers across tiers.
    pub fn total_servers(&self) -> u32 {
        self.tiers.iter().map(|t| t.count).sum()
    }

    /// Steady-state distribution of the number of **down** servers in tier
    /// `i` ([`AggregatedRates::down_distribution`] of its rates and count).
    ///
    /// # Errors
    ///
    /// Propagates invalid-rate errors.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn tier_down_distribution(&self, i: usize) -> Result<Vec<f64>, SolveError> {
        let t = &self.tiers[i];
        t.rates.down_distribution(t.count)
    }

    /// Every tier's [`tier_down_distribution`](Self::tier_down_distribution),
    /// in tier order.
    fn tier_down_distributions(&self) -> Result<Vec<Vec<f64>>, SolveError> {
        (0..self.tiers.len())
            .map(|i| self.tier_down_distribution(i))
            .collect()
    }

    /// COA, availability and expected running servers together — what
    /// every design evaluation needs — from one birth–death solve per
    /// tier and [`NetworkMeasures::from_down_distributions`].
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn measures(&self) -> Result<NetworkMeasures, SolveError> {
        let dists = self.tier_down_distributions()?;
        let dists: Vec<&[f64]> = dists.iter().map(Vec::as_slice).collect();
        Ok(NetworkMeasures::from_down_distributions(&dists))
    }

    /// The paper's capacity-oriented availability (Table VI, generalized):
    /// reward 0 when **any** tier has zero servers up (the service chain is
    /// broken), otherwise the fraction of running servers.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn coa(&self) -> Result<f64, SolveError> {
        Ok(self.measures()?.coa)
    }

    /// Classical availability: probability that every tier has at least
    /// one server up.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn availability(&self) -> Result<f64, SolveError> {
        Ok(self.measures()?.availability)
    }

    /// Expected number of running servers.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn expected_up_servers(&self) -> Result<f64, SolveError> {
        Ok(self.measures()?.expected_up)
    }

    /// Builds the explicit Figure-4 SRN: per tier, a `P<t>up`/`P<t>pd`
    /// place pair with marking-dependent patch rate `λ_eq·#up` and recovery
    /// `µ_eq·#down`.
    ///
    /// Returns the net plus the per-tier *up* places for reward functions.
    pub fn to_srn(&self) -> (Srn, Vec<PlaceId>) {
        let mut net = Srn::new("network");
        let mut up_places = Vec::with_capacity(self.tiers.len());
        for t in &self.tiers {
            let up = net.add_place(format!("P{}up", t.name), t.count);
            let down = net.add_place(format!("P{}pd", t.name), 0);
            let lambda = t.rates.lambda_eq;
            let mu = t.rates.mu_eq;
            let patch = net.add_timed_fn(format!("T{}d", t.name), move |m| {
                lambda * m.tokens(up) as f64
            });
            net.add_move(patch, up, down).expect("valid ids");
            let recover = net.add_timed_fn(format!("T{}up", t.name), move |m| {
                mu * m.tokens(down) as f64
            });
            net.add_move(recover, down, up).expect("valid ids");
            up_places.push(up);
        }
        (net, up_places)
    }

    /// COA computed through the explicit SRN — an independent cross-check
    /// of [`coa`](Self::coa).
    ///
    /// # Errors
    ///
    /// Propagates SRN errors.
    pub fn coa_via_srn(&self) -> Result<f64, SrnError> {
        let (net, ups) = self.to_srn();
        let solved = net.solve()?;
        let counts: Vec<u32> = self.tiers.iter().map(|t| t.count).collect();
        let total: u32 = counts.iter().sum();
        Ok(solved.expected(|m| {
            let up_counts: Vec<u32> = ups.iter().map(|&p| m.tokens(p)).collect();
            if up_counts.contains(&0) {
                0.0
            } else {
                up_counts.iter().map(|&u| u as f64).sum::<f64>() / total as f64
            }
        }))
    }
}

/// Above this joint-state count the separable reward measures (COA,
/// availability, expected up servers) switch from exact enumeration to
/// the algebraically identical factored form — the enumeration is
/// exponential in the tier count and a fleet-scale network (hundreds of
/// tiers) never finishes it. Small networks keep the enumeration path so
/// pinned numbers stay bit-identical.
const FACTORED_THRESHOLD: u128 = 1 << 20;

/// The most entries the joint-state pass's prefix table holds (96 KiB):
/// the leading tiers whose joint states fit are multiplied out once per
/// network, the remaining tiers are streamed over the table.
const PREFIX_TABLE_ENTRIES: usize = 4096;

/// Servers in the tier with down distribution `dist` (one state per
/// down-server count, `0..=count`).
fn servers(dist: &[f64]) -> u32 {
    u32::try_from(dist.len() - 1).expect("a tier's server count fits u32")
}

/// Joint states `Π (countᵢ + 1)` the mixed-radix enumeration visits
/// (saturating).
fn joint_states(dists: &[&[f64]]) -> u128 {
    dists
        .iter()
        .fold(1u128, |acc, d| acc.saturating_mul(d.len() as u128))
}

/// Whether the separable measures take the factored form.
fn factored(dists: &[&[f64]]) -> bool {
    joint_states(dists) > FACTORED_THRESHOLD
}

/// One tier's moments `(P(up ≥ 1), E[up · 1{up ≥ 1}], E[up])` from its
/// down distribution `dist` (`dist[k]` is the probability that `k` of
/// its `dist.len() − 1` servers are down), summed in one pass in
/// down-count order. They are the per-tier factors of the factored
/// measures of [`NetworkMeasures::from_down_distributions`].
///
/// # Panics
///
/// Panics when `dist` is empty.
pub fn tier_moments(dist: &[f64]) -> (f64, f64, f64) {
    let count = servers(dist);
    let (mut p, mut m, mut mean) = (0.0, 0.0, 0.0);
    for (down, &prob) in dist.iter().enumerate() {
        let up = count - down as u32;
        let weighted = prob * f64::from(up);
        if up >= 1 {
            p += prob;
            m += weighted;
        }
        mean += weighted;
    }
    (p, m, mean)
}

/// Factored COA from every tier's [`tier_moments`] over `total` servers.
/// Tiers are independent, so
/// `E[Σᵢ upᵢ · Πⱼ 1{upⱼ ≥ 1}] = Σᵢ mᵢ · Πⱼ≠ᵢ pⱼ`; prefix/suffix products
/// keep it `O(n)` without dividing by a possibly-zero `pᵢ`.
fn coa_factored(moments: &[(f64, f64, f64)], total: u32) -> f64 {
    let n = moments.len();
    let mut prefix = vec![1.0; n + 1];
    for (i, &(p, _, _)) in moments.iter().enumerate() {
        prefix[i + 1] = prefix[i] * p;
    }
    let mut suffix = vec![1.0; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] * moments[i].0;
    }
    let mut up_sum = 0.0;
    for (i, &(_, m, _)) in moments.iter().enumerate() {
        up_sum += prefix[i] * m * suffix[i + 1];
    }
    up_sum / f64::from(total)
}

/// One joint state of the tiers the prefix table covers.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    /// The left-to-right product of the covered tiers' factors, from
    /// `1.0`.
    p: f64,
    /// `1.0` when every covered tier has a server up, else `0.0`.
    w: f64,
    /// Up servers over the covered tiers.
    up: u32,
}

impl Prefix {
    /// This state extended by a tier with `down` of its `count` servers
    /// down, at probability `factor`.
    fn then(self, factor: f64, count: u32, down: usize) -> Prefix {
        let up = count - down as u32;
        Prefix {
            p: self.p * factor,
            w: if up > 0 { self.w } else { 0.0 },
            up: self.up + up,
        }
    }
}

/// The joint states of `covered` in mixed-radix order (tier 0 fastest):
/// the table of one empty state, replicated once per down-server count of
/// each next tier, each block extended by its count.
fn prefix_table(covered: &[&[f64]]) -> Vec<Prefix> {
    let mut table = Vec::with_capacity(covered.iter().map(|d| d.len()).product());
    table.push(Prefix {
        p: 1.0,
        w: 1.0,
        up: 0,
    });
    for dist in covered {
        let width = table.len();
        for _ in 1..dist.len() {
            table.extend_from_within(..width);
        }
        let count = servers(dist);
        for (block, (down, &factor)) in table.chunks_exact_mut(width).zip(dist.iter().enumerate()) {
            for state in block {
                *state = state.then(factor, count, down);
            }
        }
    }
    table
}

/// How many leading tiers the prefix table covers: as many as fit
/// [`PREFIX_TABLE_ENTRIES`], but never the last tier. Streaming it costs
/// one multiplication per state; covering it would walk the states twice.
fn covered_tiers(dists: &[&[f64]]) -> usize {
    let mut entries = 1usize;
    dists[..dists.len() - 1]
        .iter()
        .take_while(|d| {
            entries = entries.saturating_mul(d.len());
            entries <= PREFIX_TABLE_ENTRIES
        })
        .count()
}

/// The exact enumeration: one pass over the joint states in mixed-radix
/// order (tier 0 fastest) accumulating all three measures.
///
/// The [`covered_tiers`] are multiplied out once into a
/// [`prefix_table`]; the remaining tiers are streamed outermost, their
/// factors, up servers and whether one of them is down set once per
/// outer state. A state's probability is its table entry times the
/// remaining factors in tier order — the left-to-right product from
/// tier 0 the per-reward passes take. The accumulation has no branch:
/// COA and availability terms carry a 0/1 weight (every tier up), and a
/// probability failing `p > 0.0` counts as `+0.0`. Its scratch is the
/// table and one digit and factor per streamed tier, whatever the server
/// count: a state's share `up/total` is divided where it is used.
fn enumerate(dists: &[&[f64]], total: u32) -> NetworkMeasures {
    let total = f64::from(total);
    let (covered, streamed) = dists.split_at(covered_tiers(dists));
    let table = prefix_table(covered);
    let mut outer = vec![0usize; streamed.len()];
    let mut factors = vec![0.0; streamed.len()];
    let (mut coa, mut availability, mut expected_up) = (0.0, 0.0, 0.0);
    loop {
        let mut outer_up = 0;
        let mut outer_w = 1.0;
        for ((f, &down), dist) in factors.iter_mut().zip(&outer).zip(streamed) {
            let up = servers(dist) - down as u32;
            *f = dist[down];
            outer_up += up;
            if up == 0 {
                outer_w = 0.0;
            }
        }
        let (&first, rest) = factors.split_first().expect("the last tier is streamed");
        for state in &table {
            let p = rest.iter().fold(state.p * first, |p, &f| p * f);
            let p = if p > 0.0 { p } else { 0.0 };
            let w = state.w * outer_w;
            let up = state.up + outer_up;
            coa += p * w * (f64::from(up) / total);
            availability += p * w;
            expected_up += p * f64::from(up);
        }
        if !next_state(&mut outer, streamed) {
            break;
        }
    }
    NetworkMeasures {
        coa,
        availability,
        expected_up,
    }
}

/// Advances the mixed-radix counter `idx` (digit `i` over
/// `0..dists[i].len()`, digit 0 fastest); `false` once it wraps to all
/// zeros.
fn next_state(idx: &mut [usize], dists: &[&[f64]]) -> bool {
    for (i, dist) in idx.iter_mut().zip(dists) {
        if *i + 1 < dist.len() {
            *i += 1;
            return true;
        }
        *i = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(mttr_hours: f64) -> AggregatedRates {
        AggregatedRates {
            lambda_eq: 1.0 / 720.0,
            mu_eq: 1.0 / mttr_hours,
        }
    }

    /// The paper's case-study network (Table V rates).
    fn case_study() -> NetworkModel {
        NetworkModel::new(vec![
            Tier::new(
                "dns",
                1,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.49992,
                },
            ),
            Tier::new(
                "web",
                2,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.71420,
                },
            ),
            Tier::new(
                "app",
                2,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 0.99995,
                },
            ),
            Tier::new(
                "db",
                1,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.09085,
                },
            ),
        ])
    }

    #[test]
    fn paper_coa_0_99707() {
        let coa = case_study().coa().unwrap();
        assert!((coa - 0.99707).abs() < 5e-5, "COA {coa} vs paper 0.99707");
    }

    #[test]
    fn product_form_matches_srn() {
        let net = case_study();
        let a = net.coa().unwrap();
        let b = net.coa_via_srn().unwrap();
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn single_tier_single_server() {
        let net = NetworkModel::new(vec![Tier::new("only", 1, rates(1.0))]);
        let coa = net.coa().unwrap();
        // Availability of a 2-state chain: µ/(λ+µ) with µ = 1, λ = 1/720.
        let expect = 1.0 / (1.0 + 1.0 / 720.0);
        assert!((coa - expect).abs() < 1e-12);
        assert_eq!(net.total_servers(), 1);
    }

    #[test]
    fn redundancy_increases_coa_of_bottleneck() {
        let base = NetworkModel::new(vec![
            Tier::new("a", 1, rates(1.0)),
            Tier::new("b", 1, rates(0.5)),
        ]);
        let redundant = NetworkModel::new(vec![
            Tier::new("a", 2, rates(1.0)),
            Tier::new("b", 1, rates(0.5)),
        ]);
        assert!(redundant.coa().unwrap() > base.coa().unwrap());
    }

    #[test]
    fn redundancy_on_slowest_tier_helps_most() {
        // The paper's observation: duplicating the tier with the longest
        // MTTR yields the highest COA.
        let slow = rates(2.0);
        let fast = rates(0.5);
        let dup_slow =
            NetworkModel::new(vec![Tier::new("slow", 2, slow), Tier::new("fast", 1, fast)]);
        let dup_fast =
            NetworkModel::new(vec![Tier::new("slow", 1, slow), Tier::new("fast", 2, fast)]);
        assert!(dup_slow.coa().unwrap() > dup_fast.coa().unwrap());
    }

    #[test]
    fn availability_exceeds_coa() {
        // COA penalizes partial capacity; plain availability does not.
        let net = case_study();
        let coa = net.coa().unwrap();
        let avail = net.availability().unwrap();
        assert!(avail >= coa);
    }

    #[test]
    fn expected_up_servers_close_to_total() {
        let net = case_study();
        let e = net.expected_up_servers().unwrap();
        assert!(e > 5.98 && e < 6.0);
    }

    #[test]
    fn tier_distribution_sums_to_one() {
        let net = case_study();
        for i in 0..net.tiers().len() {
            let d = net.tier_down_distribution(i).unwrap();
            assert_eq!(d.len(), net.tiers()[i].count as usize + 1);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn table_vi_reward_values_exercised() {
        // With 1+2+2+1 servers the reward takes exactly the paper's values
        // {1, 5/6, 4/6, 0} on the states it lists.
        let net = case_study();
        let total = net.total_servers() as f64;
        assert_eq!(total, 6.0);
        let reward = |ups: &[u32]| {
            if ups.contains(&0) {
                0.0
            } else {
                ups.iter().map(|&u| u as f64).sum::<f64>() / total
            }
        };
        assert_eq!(reward(&[1, 2, 2, 1]), 1.0);
        assert!((reward(&[1, 1, 2, 1]) - 5.0 / 6.0).abs() < 1e-15);
        assert!((reward(&[1, 2, 1, 1]) - 5.0 / 6.0).abs() < 1e-15);
        assert!((reward(&[1, 1, 1, 1]) - 4.0 / 6.0).abs() < 1e-15);
        assert_eq!(reward(&[0, 2, 2, 1]), 0.0);
        assert_eq!(reward(&[1, 0, 2, 1]), 0.0);
    }

    /// `net`'s tier down distributions, and the slices the free
    /// functions take.
    fn distributions(net: &NetworkModel) -> Vec<Vec<f64>> {
        net.tier_down_distributions().unwrap()
    }

    fn slices(dists: &[Vec<f64>]) -> Vec<&[f64]> {
        dists.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn factored_forms_match_enumeration() {
        // The factored fast path must agree with the exact mixed-radix
        // enumeration on networks small enough to run both.
        let net = case_study();
        let moments: Vec<_> = distributions(&net)
            .iter()
            .map(|dist| tier_moments(dist))
            .collect();
        assert!((coa_factored(&moments, net.total_servers()) - net.coa().unwrap()).abs() < 1e-12);
        let avail_factored: f64 = moments.iter().map(|&(p, _, _)| p).product();
        assert!((avail_factored - net.availability().unwrap()).abs() < 1e-12);
        let up_factored: f64 = moments.iter().map(|&(_, _, mean)| mean).sum();
        assert!((up_factored - net.expected_up_servers().unwrap()).abs() < 1e-12);
    }

    /// The three single-reward computations the one pass replaced, kept
    /// as its oracle: one mixed-radix loop per reward below the factoring
    /// threshold, each state's probability folded from `1.0` over every
    /// tier, the factored forms above it.
    fn separate_measures(net: &NetworkModel) -> [f64; 3] {
        let dists = distributions(net);
        let n = net.tiers().len();
        if factored(&slices(&dists)) {
            let moments: Vec<_> = dists.iter().map(|dist| tier_moments(dist)).collect();
            return [
                coa_factored(&moments, net.total_servers()),
                moments.iter().map(|&(p, _, _)| p).product(),
                moments.iter().map(|&(_, _, mean)| mean).sum(),
            ];
        }
        let enumerate = |reward: &dyn Fn(&[u32]) -> f64| {
            let radices: Vec<usize> = net.tiers().iter().map(|t| t.count as usize + 1).collect();
            let mut idx = vec![0usize; n];
            let mut ups = vec![0u32; n];
            let mut total = 0.0;
            loop {
                let mut p = 1.0;
                for (i, &down) in idx.iter().enumerate() {
                    p *= dists[i][down];
                    ups[i] = net.tiers()[i].count - down as u32;
                }
                if p > 0.0 {
                    total += p * reward(&ups);
                }
                let mut carry = true;
                for (i, r) in idx.iter_mut().zip(&radices) {
                    if carry {
                        *i += 1;
                        if *i == *r {
                            *i = 0;
                        } else {
                            carry = false;
                        }
                    }
                }
                if carry {
                    break;
                }
            }
            total
        };
        let total = net.total_servers() as f64;
        [
            enumerate(&|ups| {
                if ups.contains(&0) {
                    0.0
                } else {
                    ups.iter().map(|&u| u as f64).sum::<f64>() / total
                }
            }),
            enumerate(&|ups| if ups.iter().all(|&u| u > 0) { 1.0 } else { 0.0 }),
            enumerate(&|ups| ups.iter().map(|&u| u as f64).sum()),
        ]
    }

    /// The one pass, and the three public measures, against the oracle,
    /// bit for bit.
    fn assert_measures_match(net: &NetworkModel) {
        let m = net.measures().unwrap();
        let fused = [m.coa, m.availability, m.expected_up];
        let public = [
            net.coa().unwrap(),
            net.availability().unwrap(),
            net.expected_up_servers().unwrap(),
        ];
        for (want, (got, public)) in separate_measures(net).iter().zip(fused.iter().zip(public)) {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
            assert_eq!(public.to_bits(), want.to_bits(), "{public} vs {want}");
        }
    }

    #[test]
    fn fused_measures_match_separate_measures_at_the_factoring_threshold() {
        // 4¹⁰ = 2²⁰ joint states is the largest enumerated network; one
        // more single-server tier doubles it past the threshold into the
        // factored form. Both sides must match bit for bit.
        let tier = |i: usize, count| Tier::new(format!("t{i}"), count, rates(0.5 + 0.1 * i as f64));
        let enumerated = NetworkModel::new((0..10).map(|i| tier(i, 3)).collect());
        let dists = distributions(&enumerated);
        assert_eq!(joint_states(&slices(&dists)), 1 << 20);
        assert!(!factored(&slices(&dists)));
        assert_measures_match(&enumerated);
        let mut tiers = enumerated.tiers().to_vec();
        tiers.push(tier(10, 1));
        let factored_net = NetworkModel::new(tiers);
        assert!(factored(&slices(&distributions(&factored_net))));
        assert_measures_match(&factored_net);
        assert_measures_match(&case_study());
    }

    #[test]
    fn measures_match_separate_measures_across_the_prefix_table_cap() {
        // The table covers the leading tiers whose joint states fit
        // `PREFIX_TABLE_ENTRIES`, never the last tier: exactly full, one
        // tier over, every tier streamed (tier 0 alone overflows it), a
        // single tier, and every tier but the last covered.
        let tier = |i: usize, count| Tier::new(format!("t{i}"), count, rates(0.4 + 0.3 * i as f64));
        let nets = [
            (
                vec![tier(0, 7), tier(1, 7), tier(2, 7), tier(3, 7), tier(4, 2)],
                4,
            ),
            (vec![tier(0, 4095), tier(1, 1), tier(2, 2)], 1),
            (vec![tier(0, 4096), tier(1, 2), tier(2, 1)], 0),
            (vec![tier(0, 3)], 0),
            (vec![tier(0, 1), tier(1, 2), tier(2, 3)], 2),
        ];
        for (tiers, covered) in nets {
            let net = NetworkModel::new(tiers);
            let dists = distributions(&net);
            assert_eq!(covered_tiers(&slices(&dists)), covered);
            assert_measures_match(&net);
        }
    }

    #[test]
    fn prefix_table_builds_the_joint_states_in_mixed_radix_order() {
        // Tier 0 fastest: entry `d0 + 3·d1` is (d0, d1) down, its
        // probability the left-to-right product from `1.0`.
        let dists: [&[f64]; 2] = [&[0.5, 0.25, 0.25], &[0.75, 0.25]];
        let table = prefix_table(&dists);
        assert_eq!(table.len(), 6);
        for (i, state) in table.iter().enumerate() {
            let (d0, d1) = (i % 3, i / 3);
            assert_eq!(
                state.p.to_bits(),
                (1.0 * dists[0][d0] * dists[1][d1]).to_bits()
            );
            assert_eq!(state.up, (2 - d0 + 1 - d1) as u32);
            assert_eq!(state.w, if d0 < 2 && d1 < 1 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    #[ignore = "the whole 8⁴ case-study space; run in release"]
    fn measures_match_separate_measures_over_the_case_study_space() {
        // Every design of the paper's case study with 1..=8 servers per
        // tier, under its Table V rates.
        let base = case_study();
        let mut designs = 0;
        for i in 0..8u32.pow(4) {
            let tiers = base
                .tiers()
                .iter()
                .enumerate()
                .map(|(t, tier)| {
                    Tier::new(
                        tier.name.clone(),
                        1 + i / 8u32.pow(t as u32) % 8,
                        tier.rates,
                    )
                })
                .collect();
            assert_measures_match(&NetworkModel::new(tiers));
            designs += 1;
        }
        assert_eq!(designs, 4096);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random networks of up to 9 tiers: the one pass is the three
        /// measures, inside the prefix table, across its cap and past the
        /// factoring threshold. About a third of the tiers never go down
        /// (`λ_eq = 0`), so their down distribution is `[1, 0, …]` and
        /// every joint state with one of them down has probability zero:
        /// the pass must give those states exactly the per-reward passes'
        /// arithmetic.
        #[test]
        fn fused_measures_match_separate_measures(
            tiers in proptest::collection::vec(
                (1u32..6, 0u32..3, 1e-4f64..0.1, 0.05f64..5.0),
                1..10,
            ),
        ) {
            let net = NetworkModel::new(
                tiers
                    .iter()
                    .enumerate()
                    .map(|(i, &(count, never_down, lambda_eq, mu_eq))| {
                        let lambda_eq = if never_down == 0 { 0.0 } else { lambda_eq };
                        Tier::new(format!("t{i}"), count, AggregatedRates { lambda_eq, mu_eq })
                    })
                    .collect(),
            );
            assert_measures_match(&net);
        }
    }

    #[test]
    fn fleet_scale_network_solves_in_product_form() {
        // 150 tiers would be 2^150+ joint states under enumeration; the
        // factored path must make this instant and sane.
        let tiers: Vec<Tier> = (0..150)
            .map(|i| {
                Tier::new(
                    format!("t{i}"),
                    1 + (i % 3) as u32,
                    rates(1.0 + i as f64 * 0.01),
                )
            })
            .collect();
        let net = NetworkModel::new(tiers);
        let coa = net.coa().unwrap();
        let avail = net.availability().unwrap();
        assert!(coa > 0.0 && coa < 1.0, "{coa}");
        assert!(avail >= coa && avail < 1.0, "{avail}");
        let up = net.expected_up_servers().unwrap();
        assert!(up > 0.99 * f64::from(net.total_servers()) && up < f64::from(net.total_servers()));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_count_tier_panics() {
        let _ = Tier::new("x", 0, rates(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_network_panics() {
        let _ = NetworkModel::new(vec![]);
    }
}
