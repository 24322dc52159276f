//! LCM-style closed frequent itemset mining (Uno et al., FIMI'03) — the
//! paper's default group discovery algorithm for user datasets.
//!
//! Every closed frequent itemset over the token universe is exactly one
//! user group: the itemset is the group's description ("common attributes")
//! and its tidlist is the member set. Closedness matters because it
//! collapses the exponential group space onto its unique maximal
//! descriptions: "engineers in MA" and "engineers in MA who work at
//! NextWorth" are one group if the same users match both.
//!
//! Implementation: depth-first **prefix-preserving closure extension**
//! (ppc-extension) driven by **occurrence deliver**. A node of the search
//! is a member list reached by adding a core token `e` to the parent's
//! closed set `P`. One pass over the members' transactions counts every
//! token they carry, and that one table answers everything the node needs:
//! the closure is the tokens every member carries (count = `|members|`),
//! the node is kept only if the closure adds no token smaller than `e`
//! that `P` lacks (the ppc test — otherwise the set is reached through
//! that smaller token), and the children are the tokens `> e` carried by
//! at least `min_support` but not all of the members. A second pass over
//! the same transactions delivers the children's tidlists into one flat
//! buffer by counting sort — ascending for free, because the members are
//! walked ascending. No tidlist is intersected and no token nobody in the
//! node carries is looked at, so a node costs the size of its members'
//! transactions, not the size of the universe. Every closed set is
//! generated exactly once, in polynomial delay, with no candidate storage
//! — the properties LCM is known for.

use crate::bitmap::MemberSet;
use crate::group::{Group, GroupSet};
use crate::transactions::TransactionDb;
use vexus_data::TokenId;

/// Configuration for the closed-group miner.
#[derive(Debug, Clone)]
pub struct LcmConfig {
    /// Minimum members per group (absolute support). A group has at least
    /// one member, so `0` behaves as `1`.
    pub min_support: usize,
    /// Maximum description length (itemset size); caps the depth of the
    /// search. The paper's group descriptions are short conjunctions.
    pub max_description: usize,
    /// Hard cap on emitted groups (safety valve for tiny supports over
    /// wide schemas; the space is exponential).
    pub max_groups: usize,
    /// Whether to emit the root group (closure of the full population —
    /// tokens shared by *everyone*), subject to both caps like any other
    /// group. An empty root closure is never emitted: a group with no
    /// description is a cluster, not a closed itemset. Sharded drivers
    /// turn this on per shard so a shard whose whole closed family is its
    /// own root still emits a merge witness.
    pub emit_root: bool,
}

impl Default for LcmConfig {
    fn default() -> Self {
        Self {
            min_support: 2,
            max_description: 6,
            max_groups: 200_000,
            emit_root: false,
        }
    }
}

/// Mine all closed frequent groups from a transaction database.
pub fn mine_closed_groups(db: &TransactionDb, cfg: &LcmConfig) -> GroupSet {
    let mut miner = Miner {
        db,
        cfg,
        out: GroupSet::new(),
        count: vec![0; db.n_tokens()],
        slot: vec![CLOSED; db.n_tokens()],
        touched: Vec::new(),
        spare: Vec::new(),
    };
    let everyone: Vec<u32> = (0..db.n_transactions() as u32).collect();
    if !everyone.is_empty() {
        // The root: the whole population, below every token.
        miner.expand(&[], &everyone, None);
    }
    miner.out
}

/// `Miner::slot` of a token that is not an extension of the current node.
const CLOSED: usize = usize::MAX;

/// One recursion level's scratch, recycled through [`Miner::spare`] so a
/// mine allocates per emitted group, not per node.
#[derive(Default)]
struct Level {
    /// The node's closed set.
    closure: Vec<TokenId>,
    /// The node's extensions in ascending token order, each with the end
    /// of its tidlist in `tids` (it starts where the previous one ends).
    extensions: Vec<(TokenId, usize)>,
    /// The extensions' tidlists, back to back.
    tids: Vec<u32>,
}

struct Miner<'a> {
    db: &'a TransactionDb,
    cfg: &'a LcmConfig,
    out: GroupSet,
    /// Per token: how many of the current node's members carry it. All
    /// zero between nodes.
    count: Vec<u32>,
    /// Per token carried in the current node: where its next member lands
    /// in the level's `tids`, or [`CLOSED`]. Written for every carried
    /// token before it is read, so never reset.
    slot: Vec<usize>,
    /// The tokens with a non-zero `count`.
    touched: Vec<TokenId>,
    spare: Vec<Level>,
}

impl Miner<'_> {
    /// Visit the node whose `members` (ascending) are the parent's members
    /// carrying `core`: emit its closed set unless it was reached before,
    /// then visit its ppc-extensions in ascending token order. `parent` is
    /// the parent's closed set; the root has `core: None`.
    fn expand(&mut self, parent: &[TokenId], members: &[u32], core: Option<TokenId>) {
        if self.out.len() >= self.cfg.max_groups {
            return;
        }
        let db = self.db;
        for &user in members {
            for &t in db.transaction(user) {
                if self.count[t.index()] == 0 {
                    self.touched.push(t);
                }
                self.count[t.index()] += 1;
            }
        }
        let full = members.len() as u32;
        let mut level = self.spare.pop().unwrap_or_default();
        level.closure.clear();
        level.closure.extend(
            db.transaction(members[0])
                .iter()
                .filter(|t| self.count[t.index()] == full),
        );
        // ppc test: the closure must not introduce any token < core that
        // the parent lacks. Otherwise this closed set will be (or was)
        // reached via that smaller token.
        let reached_elsewhere = core.is_some_and(|e| {
            level
                .closure
                .iter()
                .any(|&t| t < e && parent.binary_search(&t).is_err())
        });
        // A closed description longer than we emit ends the branch — all
        // ppc-descendants are at least as long — and one at the cap is
        // emitted but not extended.
        let keep = !reached_elsewhere && level.closure.len() <= self.cfg.max_description;
        level.extensions.clear();
        if keep && level.closure.len() < self.cfg.max_description {
            for &t in &self.touched {
                let carriers = self.count[t.index()];
                let open = core.is_none_or(|e| t > e)
                    && carriers as usize >= self.cfg.min_support
                    && carriers < full;
                self.slot[t.index()] = CLOSED;
                if open {
                    level.extensions.push((t, carriers as usize));
                }
            }
            level.extensions.sort_unstable_by_key(|&(t, _)| t);
            let mut end = 0;
            for (t, carriers) in &mut level.extensions {
                self.slot[t.index()] = end;
                end += *carriers;
                *carriers = end;
            }
            level.tids.clear();
            level.tids.resize(end, 0);
        }
        for t in self.touched.drain(..) {
            self.count[t.index()] = 0;
        }
        if !keep {
            self.spare.push(level);
            return;
        }
        let described = core.is_some()
            || (self.cfg.emit_root
                && !level.closure.is_empty()
                && members.len() >= self.cfg.min_support);
        if described {
            self.out.push(Group::new(
                level.closure.clone(),
                MemberSet::from_sorted(members.to_vec()),
            ));
        }
        if !level.extensions.is_empty() {
            for &user in members {
                for &t in db.transaction(user) {
                    let slot = &mut self.slot[t.index()];
                    if *slot != CLOSED {
                        level.tids[*slot] = user;
                        *slot += 1;
                    }
                }
            }
        }
        let mut start = 0;
        for &(e, end) in &level.extensions {
            self.expand(&level.closure, &level.tids[start..end], Some(e));
            start = end;
        }
        self.spare.push(level);
    }
}

/// The tidlist-intersection miner: at every node it tries every token of
/// the universe, intersects the node's members with the token's global
/// tidlist and takes the closure in a separate pass. Same trial order,
/// same checks — the oracle [`mine_closed_groups`] is pinned against,
/// order included.
#[cfg(test)]
pub fn mine_closed_groups_reference(db: &TransactionDb, cfg: &LcmConfig) -> GroupSet {
    let mut miner = ReferenceMiner {
        db,
        cfg,
        out: GroupSet::new(),
    };
    miner.run();
    miner.out
}

#[cfg(test)]
struct ReferenceMiner<'a> {
    db: &'a TransactionDb,
    cfg: &'a LcmConfig,
    out: GroupSet,
}

#[cfg(test)]
impl ReferenceMiner<'_> {
    fn run(&mut self) {
        let n = self.db.n_transactions();
        if n == 0 || self.db.n_tokens() == 0 {
            return;
        }
        let universe = MemberSet::universe(n as u32);
        let root_closure = self.db.closure(&universe);
        if self.cfg.emit_root
            && n >= self.cfg.min_support
            && !root_closure.is_empty()
            && root_closure.len() <= self.cfg.max_description
            && self.cfg.max_groups > 0
        {
            self.out
                .push(Group::new(root_closure.clone(), universe.clone()));
        }
        // Recurse from the root with core index "before token 0".
        self.expand(&root_closure, &universe, None);
    }

    /// Try all ppc-extensions of closed set `p` (with tidlist `members` and
    /// core index `core`, `None` meaning "below every token").
    fn expand(&mut self, p: &[TokenId], members: &MemberSet, core: Option<TokenId>) {
        if self.out.len() >= self.cfg.max_groups || p.len() >= self.cfg.max_description {
            return;
        }
        let start = core.map_or(0, |c| c.raw() + 1);
        for raw in start..self.db.n_tokens() as u32 {
            if self.out.len() >= self.cfg.max_groups {
                return;
            }
            let e = TokenId::new(raw);
            if p.binary_search(&e).is_ok() {
                continue;
            }
            // Cheap support upper bound before intersecting.
            if self.db.support(e) < self.cfg.min_support {
                continue;
            }
            let extended = members.intersect(self.db.tidlist(e));
            if extended.len() < self.cfg.min_support {
                continue;
            }
            let closure = self.db.closure(&extended);
            // ppc test: the closure must not introduce any token < e that
            // is not already in p. Otherwise this closed set will be (or
            // was) reached via that smaller token.
            let violates = closure
                .iter()
                .any(|&t| t < e && p.binary_search(&t).is_err());
            if violates {
                continue;
            }
            if closure.len() > self.cfg.max_description {
                // A longer closed description than we emit; skip the branch
                // entirely — all ppc-descendants are at least as long.
                continue;
            }
            self.out.push(Group::new(closure.clone(), extended.clone()));
            self.expand(&closure, &extended, Some(e));
        }
    }
}

/// Brute-force closed-itemset enumeration for testing: enumerate all subsets
/// of the token universe, keep frequent ones, filter to closed. Exponential;
/// only usable on tiny universes.
#[cfg(test)]
pub fn brute_force_closed(
    db: &TransactionDb,
    min_support: usize,
    max_description: usize,
) -> Vec<(Vec<TokenId>, Vec<u32>)> {
    let n_tokens = db.n_tokens();
    assert!(n_tokens <= 16, "brute force is exponential");
    let mut out = Vec::new();
    for mask in 1u32..(1 << n_tokens) {
        let itemset: Vec<TokenId> = (0..n_tokens as u32)
            .filter(|i| mask & (1 << i) != 0)
            .map(TokenId::new)
            .collect();
        if itemset.len() > max_description {
            continue;
        }
        let members = db.itemset_members(&itemset);
        if members.len() < min_support {
            continue;
        }
        let closure = db.closure(&members);
        if closure == itemset {
            out.push((itemset, members.iter().collect()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transactions::TransactionDb;
    use proptest::prelude::*;

    fn toks(v: &[u32]) -> Vec<TokenId> {
        v.iter().map(|&t| TokenId::new(t)).collect()
    }

    fn classic_db() -> TransactionDb {
        // Classic FIMI example.
        TransactionDb::from_transactions(
            vec![
                toks(&[0, 1, 2]),
                toks(&[0, 1]),
                toks(&[0, 2]),
                toks(&[1, 2]),
                toks(&[0, 1, 2, 3]),
            ],
            4,
        )
    }

    fn normalize(gs: &GroupSet) -> Vec<(Vec<TokenId>, Vec<u32>)> {
        let mut v: Vec<_> = gs
            .iter()
            .map(|(_, g)| {
                (
                    g.description.clone(),
                    g.members.iter().collect::<Vec<u32>>(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn matches_brute_force_on_classic_example() {
        let db = classic_db();
        let cfg = LcmConfig {
            min_support: 2,
            max_description: 4,
            ..Default::default()
        };
        let mined = normalize(&mine_closed_groups(&db, &cfg));
        let mut brute = brute_force_closed(&db, 2, 4);
        brute.sort();
        assert_eq!(mined, brute);
        assert!(!mined.is_empty());
    }

    #[test]
    fn all_outputs_are_closed_and_frequent() {
        let db = classic_db();
        let cfg = LcmConfig {
            min_support: 2,
            ..Default::default()
        };
        let gs = mine_closed_groups(&db, &cfg);
        for (_, g) in gs.iter() {
            assert!(g.members.len() >= 2, "support violated");
            let closure = db.closure(&g.members);
            assert_eq!(closure, g.description, "not closed");
            // Members really carry the whole description.
            assert_eq!(
                db.itemset_members(&g.description).as_slice(),
                g.members.as_slice()
            );
        }
    }

    #[test]
    fn no_duplicate_groups() {
        let db = classic_db();
        let gs = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 1,
                ..Default::default()
            },
        );
        let mut descs: Vec<_> = gs.iter().map(|(_, g)| g.description.clone()).collect();
        let before = descs.len();
        descs.sort();
        descs.dedup();
        assert_eq!(before, descs.len(), "duplicate closed sets emitted");
    }

    #[test]
    fn min_support_prunes() {
        let db = classic_db();
        let lo = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 1,
                ..Default::default()
            },
        );
        let hi = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 3,
                ..Default::default()
            },
        );
        assert!(hi.len() < lo.len());
        assert!(hi.iter().all(|(_, g)| g.size() >= 3));
    }

    #[test]
    fn max_groups_caps_output() {
        let db = classic_db();
        let gs = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 1,
                max_groups: 3,
                ..Default::default()
            },
        );
        assert_eq!(gs.len(), 3);
    }

    #[test]
    fn max_description_limits_depth() {
        let db = classic_db();
        let gs = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 1,
                max_description: 1,
                ..Default::default()
            },
        );
        assert!(gs.iter().all(|(_, g)| g.description.len() <= 1));
    }

    #[test]
    fn empty_db_yields_nothing() {
        let db = TransactionDb::from_transactions(vec![], 0);
        let gs = mine_closed_groups(&db, &LcmConfig::default());
        assert!(gs.is_empty());
    }

    #[test]
    fn root_emission_toggle() {
        // All users share token 0 -> root closure non-empty.
        let db =
            TransactionDb::from_transactions(vec![toks(&[0, 1]), toks(&[0, 2]), toks(&[0])], 3);
        let without = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 3,
                ..Default::default()
            },
        );
        let with = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 3,
                emit_root: true,
                ..Default::default()
            },
        );
        assert_eq!(with.len(), without.len() + 1);
        let (_, root) = with.iter().next().unwrap();
        assert_eq!(root.description, toks(&[0]));
        assert_eq!(root.size(), 3);
    }

    /// `emit_root` mining at `min_support` 1 over three users who all
    /// carry {0, 1}: the root closure is two tokens long, with the closed
    /// sets {0, 1, 2} and {0, 1, 3} below it.
    fn mine_under_a_two_token_root(max_description: usize, max_groups: usize) -> GroupSet {
        let db = TransactionDb::from_transactions(
            vec![toks(&[0, 1, 2]), toks(&[0, 1, 3]), toks(&[0, 1])],
            4,
        );
        mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 1,
                max_description,
                max_groups,
                emit_root: true,
            },
        )
    }

    #[test]
    fn root_emission_obeys_max_description() {
        // A root longer than the cap is not a group, exactly as a longer
        // closure anywhere else is not — and, as anywhere else, nothing
        // below it is either.
        assert!(mine_under_a_two_token_root(1, usize::MAX).is_empty());
        let at_the_cap = mine_under_a_two_token_root(2, usize::MAX);
        assert_eq!(at_the_cap.len(), 1);
        let (_, root) = at_the_cap.iter().next().unwrap();
        assert_eq!(root.description, toks(&[0, 1]));
        assert_eq!(root.size(), 3);
        assert_eq!(mine_under_a_two_token_root(3, usize::MAX).len(), 3);
    }

    #[test]
    fn root_emission_obeys_max_groups() {
        assert!(mine_under_a_two_token_root(6, 0).is_empty());
        // The root counts against the cap like every other group.
        assert_eq!(mine_under_a_two_token_root(6, 1).len(), 1);
        assert_eq!(mine_under_a_two_token_root(6, 2).len(), 2);
    }

    #[test]
    fn empty_root_closure_is_never_emitted() {
        // No token is shared by everyone, so the root closure is empty —
        // `emit_root: true` must not fabricate a description-less group
        // (the merge layer would mistake it for a cluster).
        let db = TransactionDb::from_transactions(vec![toks(&[0]), toks(&[1])], 2);
        let gs = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 1,
                emit_root: true,
                ..Default::default()
            },
        );
        assert!(gs.iter().all(|(_, g)| !g.description.is_empty()));
    }

    #[test]
    fn mines_real_synthetic_data() {
        let ds =
            vexus_data::synthetic::bookcrossing(&vexus_data::synthetic::BookCrossingConfig::tiny());
        let vocab = vexus_data::Vocabulary::build(&ds.data);
        let db = TransactionDb::build(&ds.data, &vocab);
        let gs = mine_closed_groups(
            &db,
            &LcmConfig {
                min_support: 10,
                ..Default::default()
            },
        );
        assert!(
            gs.len() > 20,
            "expected a rich group space, got {}",
            gs.len()
        );
        // Spot-check group semantics on the first ten groups.
        for (_, g) in gs.iter().take(10) {
            assert_eq!(
                db.itemset_members(&g.description).as_slice(),
                g.members.as_slice()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_brute_force(
            txs in proptest::collection::vec(
                proptest::collection::btree_set(0u32..8, 0..6), 1..14),
            min_support in 1usize..4
        ) {
            let transactions: Vec<Vec<TokenId>> = txs
                .iter()
                .map(|s| s.iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let db = TransactionDb::from_transactions(transactions, 8);
            let cfg = LcmConfig {
                min_support,
                max_description: 8,
                max_groups: usize::MAX,
                emit_root: false,
            };
            let mut mined = normalize(&mine_closed_groups(&db, &cfg));
            let mut brute = brute_force_closed(&db, min_support, 8);
            brute.sort();
            // The miner skips the root closure; brute force includes any
            // non-empty closed set. Add the root back when it qualifies.
            let universe = crate::bitmap::MemberSet::universe(db.n_transactions() as u32);
            let root = db.closure(&universe);
            if !root.is_empty() && db.n_transactions() >= min_support {
                let entry = (root, universe.iter().collect::<Vec<u32>>());
                if !mined.contains(&entry) {
                    mined.push(entry);
                    mined.sort();
                }
            }
            prop_assert_eq!(mined, brute);
        }
    }

    const GROUP_CAPS: [usize; 5] = [0, 1, 3, 7, usize::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Rows are drawn with repetition from a small pool (duplicates,
        /// empty rows) over a universe two tokens wider than anything a
        /// row carries, and every cap is made to bind somewhere.
        #[test]
        fn prop_mine_equals_the_reference_miner(
            pool in proptest::collection::vec(
                proptest::collection::btree_set(0u32..8, 0..7), 1..8),
            picks in proptest::collection::vec(0usize..64, 1..24),
            min_support in 1usize..=4,
            max_description in 1usize..=8,
            group_cap in 0..GROUP_CAPS.len(),
            emit_root in 0u8..2
        ) {
            let transactions: Vec<Vec<TokenId>> = picks
                .iter()
                .map(|&i| pool[i % pool.len()].iter().map(|&t| TokenId::new(t)).collect())
                .collect();
            let db = TransactionDb::from_transactions(transactions, 10);
            let cfg = LcmConfig {
                min_support,
                max_description,
                max_groups: GROUP_CAPS[group_cap],
                emit_root: emit_root == 1,
            };
            prop_assert_eq!(
                mine_closed_groups(&db, &cfg),
                mine_closed_groups_reference(&db, &cfg)
            );
        }
    }

    #[test]
    fn engine_scale_mine_equals_the_reference_miner() {
        use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
        // The ledger's ×1 dataset shape beside the unit-test fixture.
        let x1 = BookCrossingConfig {
            n_users: 5_000,
            n_books: 4_000,
            n_ratings: 30_000,
            n_communities: 8,
            seed: 1,
        };
        for dataset in [BookCrossingConfig::tiny(), x1] {
            let ds = bookcrossing(&dataset);
            let vocab = vexus_data::Vocabulary::build(&ds.data);
            let db = TransactionDb::build(&ds.data, &vocab);
            for min_support in [5, 2] {
                let cfg = LcmConfig {
                    min_support,
                    ..Default::default()
                };
                let mined = mine_closed_groups(&db, &cfg);
                assert!(mined.len() > 100, "min_support {min_support}: a rich space");
                assert!(
                    mined == mine_closed_groups_reference(&db, &cfg),
                    "{} users, min_support {min_support}: diverged from the reference",
                    db.n_transactions()
                );
            }
        }
    }
}
