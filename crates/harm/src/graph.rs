//! Attack graphs — the upper layer of the HARM.

/// Identifier of a host in an [`AttackGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub(crate) usize);

impl HostId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Network reachability between hosts, plus the external attacker's entry
/// edges.
///
/// # Examples
///
/// ```
/// use redeval_harm::AttackGraph;
///
/// let mut g = AttackGraph::new();
/// let dmz = g.add_host("dmz");
/// let db = g.add_host("db");
/// g.add_entry(dmz);
/// g.add_edge(dmz, db);
/// assert_eq!(g.host_count(), 2);
/// assert!(g.entries().contains(&dmz));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttackGraph {
    names: Vec<String>,
    /// Adjacency: successors of each host.
    succ: Vec<Vec<HostId>>,
    /// Hosts directly reachable by the external attacker.
    entries: Vec<HostId>,
}

impl AttackGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        AttackGraph::default()
    }

    /// Adds a host and returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        self.names.push(name.into());
        self.succ.push(Vec::new());
        HostId(self.names.len() - 1)
    }

    /// Adds a reachability edge `from → to` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics on foreign ids or a self-edge.
    pub fn add_edge(&mut self, from: HostId, to: HostId) {
        assert!(from.0 < self.names.len(), "unknown source host");
        assert!(to.0 < self.names.len(), "unknown destination host");
        assert_ne!(from, to, "self edges are not allowed");
        if !self.succ[from.0].contains(&to) {
            self.succ[from.0].push(to);
        }
    }

    /// Marks a host as directly reachable from the attacker (idempotent).
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn add_entry(&mut self, host: HostId) {
        assert!(host.0 < self.names.len(), "unknown host");
        if !self.entries.contains(&host) {
            self.entries.push(host);
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.names.len()
    }

    /// All host ids in insertion order.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.names.len()).map(HostId)
    }

    /// Name of a host.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn host_name(&self, h: HostId) -> &str {
        &self.names[h.0]
    }

    /// Successors of a host.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn successors(&self, h: HostId) -> &[HostId] {
        &self.succ[h.0]
    }

    /// The attacker's entry hosts.
    pub fn entries(&self) -> &[HostId] {
        &self.entries
    }

    /// Enumerates all simple paths from any entry host to any target,
    /// traversing only hosts for which `passable` is true.
    ///
    /// Paths are host sequences (entry first, target last). `max_paths`
    /// bounds the enumeration; `None` is returned if it would be exceeded —
    /// callers treat that as "too many to enumerate".
    pub fn simple_paths(
        &self,
        targets: &[HostId],
        passable: &dyn Fn(HostId) -> bool,
        max_paths: usize,
    ) -> Option<Vec<Vec<HostId>>> {
        let (paths, truncated) = self.simple_paths_truncated(targets, passable, max_paths);
        if truncated {
            None
        } else {
            Some(paths)
        }
    }

    /// Like [`simple_paths`](Self::simple_paths) but on overflow returns the
    /// first `max_paths` paths together with `truncated = true` instead of
    /// discarding the work.
    pub fn simple_paths_truncated(
        &self,
        targets: &[HostId],
        passable: &dyn Fn(HostId) -> bool,
        max_paths: usize,
    ) -> (Vec<Vec<HostId>>, bool) {
        struct Collect(Vec<Vec<HostId>>);
        impl PathVisitor for Collect {
            fn target(&mut self, path: &[HostId]) {
                self.0.push(path.to_vec());
            }
        }
        let mut out = Collect(Vec::new());
        let truncated = self.walk_paths(&self.target_mask(targets), passable, max_paths, &mut out);
        (out.0, truncated)
    }

    /// `mask[h]` is whether host `h` is one of `targets` (ids of another
    /// graph's hosts never match).
    pub(crate) fn target_mask(&self, targets: &[HostId]) -> Vec<bool> {
        let mut mask = vec![false; self.names.len()];
        for t in targets {
            if let Some(m) = mask.get_mut(t.0) {
                *m = true;
            }
        }
        mask
    }

    /// The depth-first walk behind every path enumeration and every path
    /// metric of a [`Harm`](crate::Harm): each simple path from an entry
    /// host through `passable` hosts is extended host by host, and
    /// reported to `visitor` whenever it ends at a target
    /// (`is_target[h]`). A target may also be an intermediate hop towards
    /// another target, so the walk continues past it.
    ///
    /// Order is fixed — entries in [`entries`](Self::entries) order,
    /// successors in insertion order — and is the order every path fold
    /// runs in, the tier walk's (`TierDag::metrics`) included. The walk
    /// stops when a path beyond the first `max_paths` reaches a target,
    /// and then returns `true` (truncated). Nothing is allocated per
    /// path.
    pub(crate) fn walk_paths(
        &self,
        is_target: &[bool],
        passable: impl Fn(HostId) -> bool,
        max_paths: usize,
        visitor: &mut impl PathVisitor,
    ) -> bool {
        let hosts = self.names.len();
        let mut path: Vec<HostId> = Vec::with_capacity(hosts);
        // Per path position: the next successor index to try.
        let mut cursor: Vec<usize> = Vec::with_capacity(hosts);
        // Hosts the current path may not enter: impassable ones, and the
        // ones already on it.
        let mut blocked: Vec<bool> = (0..hosts).map(|h| !passable(HostId(h))).collect();
        let mut found = 0usize;
        for &entry in &self.entries {
            if blocked[entry.0] {
                continue;
            }
            let mut next = Some(entry);
            loop {
                if let Some(h) = next.take() {
                    path.push(h);
                    cursor.push(0);
                    blocked[h.0] = true;
                    visitor.enter(h);
                    if is_target[h.0] {
                        if found >= max_paths {
                            return true;
                        }
                        found += 1;
                        visitor.target(&path);
                    }
                }
                let Some(&h) = path.last() else { break };
                let succ = &self.succ[h.0];
                let i = cursor.last_mut().expect("one cursor per path host");
                while let Some(&s) = succ.get(*i) {
                    *i += 1;
                    if !blocked[s.0] {
                        next = Some(s);
                        break;
                    }
                }
                if next.is_none() {
                    path.pop();
                    cursor.pop();
                    blocked[h.0] = false;
                    visitor.leave();
                }
            }
        }
        false
    }
}

/// Receives the events of [`AttackGraph::walk_paths`].
pub(crate) trait PathVisitor {
    /// `h` was appended to the current path.
    fn enter(&mut self, _h: HostId) {}
    /// The last host of the current path was removed.
    fn leave(&mut self) {}
    /// The current path (entry first) ends at a target.
    fn target(&mut self, path: &[HostId]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dns -> {web1, web2} -> {app1, app2} -> db, with dns and webs as
    /// entries: the paper's case-study topology.
    fn case_study_like() -> (AttackGraph, Vec<HostId>, HostId) {
        let mut g = AttackGraph::new();
        let dns = g.add_host("dns1");
        let web1 = g.add_host("web1");
        let web2 = g.add_host("web2");
        let app1 = g.add_host("app1");
        let app2 = g.add_host("app2");
        let db = g.add_host("db1");
        g.add_entry(dns);
        g.add_entry(web1);
        g.add_entry(web2);
        for w in [web1, web2] {
            g.add_edge(dns, w);
            for a in [app1, app2] {
                g.add_edge(w, a);
                g.add_edge(a, db);
            }
        }
        (g, vec![dns, web1, web2, app1, app2], db)
    }

    #[test]
    fn eight_paths_before_patch() {
        let (g, _, db) = case_study_like();
        let paths = g.simple_paths(&[db], &|_| true, 1000).unwrap();
        assert_eq!(paths.len(), 8);
        // Each path ends at the target.
        assert!(paths.iter().all(|p| *p.last().unwrap() == db));
        // Path lengths: 4 of length 4 (via dns) and 4 of length 3.
        let of_len = |k| paths.iter().filter(|p| p.len() == k).count();
        assert_eq!(of_len(4), 4);
        assert_eq!(of_len(3), 4);
    }

    #[test]
    fn four_paths_when_dns_not_passable() {
        let (g, hosts, db) = case_study_like();
        let dns = hosts[0];
        let paths = g.simple_paths(&[db], &|h| h != dns, 1000).unwrap();
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn no_paths_when_target_unreachable() {
        let (g, hosts, db) = case_study_like();
        // Block both app servers.
        let (app1, app2) = (hosts[3], hosts[4]);
        let paths = g
            .simple_paths(&[db], &|h| h != app1 && h != app2, 1000)
            .unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn multiple_targets_collect_paths_to_each() {
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let t1 = g.add_host("t1");
        let t2 = g.add_host("t2");
        g.add_entry(a);
        g.add_edge(a, t1);
        g.add_edge(a, t2);
        let paths = g.simple_paths(&[t1, t2], &|_| true, 10).unwrap();
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn target_can_be_intermediate() {
        // a -> t1 -> t2, both targets: 2 paths (a,t1) and (a,t1,t2).
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let t1 = g.add_host("t1");
        let t2 = g.add_host("t2");
        g.add_entry(a);
        g.add_edge(a, t1);
        g.add_edge(t1, t2);
        let paths = g.simple_paths(&[t1, t2], &|_| true, 10).unwrap();
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn cycles_do_not_loop() {
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let b = g.add_host("b");
        let t = g.add_host("t");
        g.add_entry(a);
        g.add_edge(a, b);
        g.add_edge(b, a); // cycle
        g.add_edge(b, t);
        let paths = g.simple_paths(&[t], &|_| true, 10).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 3);
    }

    #[test]
    fn max_paths_overflow_returns_none() {
        let (g, _, db) = case_study_like();
        assert!(g.simple_paths(&[db], &|_| true, 3).is_none());
    }

    #[test]
    fn entry_that_is_target_yields_unit_path() {
        let mut g = AttackGraph::new();
        let t = g.add_host("t");
        g.add_entry(t);
        let paths = g.simple_paths(&[t], &|_| true, 10).unwrap();
        assert_eq!(paths, vec![vec![t]]);
    }

    #[test]
    #[should_panic(expected = "self edges")]
    fn self_edge_panics() {
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        g.add_edge(a, a);
    }

    #[test]
    fn duplicate_edges_and_entries_are_idempotent() {
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let b = g.add_host("b");
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.add_entry(a);
        g.add_entry(a);
        assert_eq!(g.successors(a).len(), 1);
        assert_eq!(g.entries().len(), 1);
    }
}
