//! Epoch-to-epoch group-space deltas for the live engine.
//!
//! The lossy-counting [`StreamMiner`] answers "what are the frequent
//! groups *now*?", but its natural output order (count-descending) makes
//! group ids shuffle between queries, so nothing downstream can tell
//! "group 7 grew" from "group 7 is a different group now". This module
//! fixes identity across epochs:
//!
//! * a group's **identity is its description** (the itemset). The miner's
//!   table is keyed by itemset, so descriptions are unique;
//! * every epoch's group space is **canonicalized** — sorted by
//!   description, lexicographically ascending — before ids are assigned.
//!   Surviving groups therefore keep their *relative* order between
//!   epochs, which makes the old→new id remap **monotone**: an untouched
//!   group's neighbor list in the next epoch's index is its old list with
//!   a pure id rewrite, because the index's similarity-then-id tie-break
//!   order is preserved under any monotone remap — which is what lets the
//!   neighbor cache carry id-stable entries across a refresh.
//!
//! [`DeltaDiscovery`] drives the miner over action deltas (each user is
//! observed once, on arrival — the first action mentioning them) and cuts
//! epochs: each [`DeltaDiscovery::epoch`] call materializes the canonical
//! filtered group space and diffs it against the previous epoch into a
//! [`GroupDelta`] of added / retired / resized groups.

use crate::group::{GroupId, GroupSet};
use crate::stream_fim::{StreamFimConfig, StreamMiner};
use vexus_data::{Action, UserData, Vocabulary};

/// The difference between two consecutive epochs' group spaces.
///
/// Both spaces must be canonical (description-sorted; see the module
/// docs). Survivors — groups in both epochs — are exactly the old ids not
/// in `retired` zipped, in order, with the new ids not in `added`; the
/// monotone map that zip induces is the id remap for everything the delta
/// does not touch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupDelta {
    /// Groups present only in the new epoch (new-space ids, ascending).
    pub added: Vec<GroupId>,
    /// Groups present only in the old epoch (old-space ids, ascending).
    pub retired: Vec<GroupId>,
    /// Groups in both epochs whose member set changed, as `(old id, new
    /// id)` pairs (ascending in both coordinates).
    pub resized: Vec<(GroupId, GroupId)>,
}

impl GroupDelta {
    /// Whether the two epochs have identical group spaces.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.retired.is_empty() && self.resized.is_empty()
    }
}

/// Sort a group space into its canonical epoch order: by description,
/// lexicographically ascending. Ids are re-assigned densely in the new
/// order.
///
/// # Panics
/// In debug builds, if two groups share a description (identity across
/// epochs is the description, so it must be unique — true for any
/// itemset-keyed miner, not for descriptionless cluster backends).
pub fn canonicalize(groups: GroupSet) -> GroupSet {
    let mut v = groups.into_vec();
    v.sort_by(|a, b| a.description.cmp(&b.description));
    debug_assert!(
        v.windows(2).all(|w| w[0].description < w[1].description),
        "canonical group spaces need unique descriptions"
    );
    GroupSet::from_groups(v)
}

/// Diff two canonical group spaces into a [`GroupDelta`]. Both inputs
/// must be description-sorted (as produced by [`canonicalize`]); a group
/// is a survivor iff its description appears in both spaces, and resized
/// iff its member set changed.
pub fn diff(old: &GroupSet, new: &GroupSet) -> GroupDelta {
    let mut delta = GroupDelta::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let oid = GroupId::new(i as u32);
        let nid = GroupId::new(j as u32);
        if i == old.len() {
            delta.added.push(nid);
            j += 1;
            continue;
        }
        if j == new.len() {
            delta.retired.push(oid);
            i += 1;
            continue;
        }
        let (og, ng) = (old.get(oid), new.get(nid));
        match og.description.cmp(&ng.description) {
            std::cmp::Ordering::Less => {
                delta.retired.push(oid);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                delta.added.push(nid);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if og.members != ng.members {
                    delta.resized.push((oid, nid));
                }
                i += 1;
                j += 1;
            }
        }
    }
    delta
}

/// Drives a [`StreamMiner`] over action deltas and cuts epoch-to-epoch
/// [`GroupDelta`]s (see the module docs for the identity model).
#[derive(Debug)]
pub struct DeltaDiscovery {
    miner: StreamMiner,
    /// Per-user arrival bit: a user is observed once, with their first
    /// action (demographics do not change with actions, so one
    /// transaction per user is the stream semantics — the same convention
    /// the batch [`crate::StreamFimDiscovery`] uses, per arrival order
    /// instead of id order).
    seen: Vec<bool>,
    arrivals: u64,
    min_group_size: usize,
    prev: GroupSet,
}

impl DeltaDiscovery {
    /// New driver over `n_users` possible arrivals. `min_group_size`
    /// filters each epoch's space before diffing, exactly like the
    /// engine's builder filters a batch space — so a group crossing the
    /// size floor surfaces as added, and one shrinking below it as
    /// retired.
    pub fn new(cfg: StreamFimConfig, min_group_size: usize, n_users: usize) -> Self {
        Self {
            miner: StreamMiner::new(cfg),
            seen: vec![false; n_users],
            arrivals: 0,
            min_group_size,
            prev: GroupSet::new(),
        }
    }

    /// Feed one action delta: every user making their first appearance is
    /// observed with their demographic transaction. Actions referencing
    /// users outside the known universe are ignored (the data layer skips
    /// them too). Returns the number of new arrivals.
    pub fn observe_arrivals(
        &mut self,
        data: &UserData,
        vocab: &Vocabulary,
        actions: &[Action],
    ) -> usize {
        let mut new = 0;
        for a in actions {
            let u = a.user.index();
            if u < self.seen.len() && !self.seen[u] {
                self.seen[u] = true;
                self.miner
                    .observe(a.user.raw(), &vocab.user_tokens(data, a.user));
                new += 1;
            }
        }
        self.arrivals += new as u64;
        new
    }

    /// Users that have arrived so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Per-user arrival bits (index = user id). Checkpoints persist this
    /// verbatim: it is *not* derivable from the applied action tape,
    /// because the data layer drops unknown-item actions that the miner
    /// still observed arrivals from.
    pub fn seen(&self) -> &[bool] {
        &self.seen
    }

    /// Reassemble a driver from checkpointed parts: the rebuilt miner
    /// ([`StreamMiner::from_state`]), the arrival bits, and the previous
    /// epoch's canonical space (`prev` — the group space of the engine
    /// published at checkpoint time, which is exactly what the next
    /// [`DeltaDiscovery::epoch`] must diff against). Resumes
    /// observation-equivalent to the uninterrupted driver.
    pub fn from_parts(
        miner: StreamMiner,
        seen: Vec<bool>,
        arrivals: u64,
        min_group_size: usize,
        prev: GroupSet,
    ) -> Self {
        Self {
            miner,
            seen,
            arrivals,
            min_group_size,
            prev,
        }
    }

    /// The underlying miner, whose state checkpoints persist.
    pub fn miner(&self) -> &StreamMiner {
        &self.miner
    }

    /// The previous epoch's canonical group space.
    pub fn groups(&self) -> &GroupSet {
        &self.prev
    }

    /// Cut an epoch: materialize the canonical, size-filtered group space
    /// as of now, diff it against the previous epoch, and make it the new
    /// baseline. Returns the space and the delta that turns the previous
    /// epoch's space into it.
    pub fn epoch(&mut self) -> (GroupSet, GroupDelta) {
        let mut groups = self.miner.groups();
        groups.filter_by_size(self.min_group_size, usize::MAX);
        let groups = canonicalize(groups);
        let delta = diff(&self.prev, &groups);
        self.prev = groups.clone();
        (groups, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::MemberSet;
    use crate::group::Group;
    use vexus_data::TokenId;

    fn toks(v: &[u32]) -> Vec<TokenId> {
        v.iter().map(|&t| TokenId::new(t)).collect()
    }

    fn space(defs: &[(&[u32], &[u32])]) -> GroupSet {
        let mut gs = GroupSet::new();
        for (desc, members) in defs {
            gs.push(Group::new(
                toks(desc),
                MemberSet::from_unsorted(members.to_vec()),
            ));
        }
        canonicalize(gs)
    }

    #[test]
    fn canonicalize_sorts_by_description() {
        let gs = space(&[(&[3], &[0]), (&[1, 2], &[1]), (&[1], &[2])]);
        let descs: Vec<_> = gs.iter().map(|(_, g)| g.description.clone()).collect();
        assert_eq!(descs, vec![toks(&[1]), toks(&[1, 2]), toks(&[3])]);
    }

    #[test]
    fn diff_of_identical_spaces_is_empty() {
        let a = space(&[(&[1], &[0, 1]), (&[2], &[1, 2])]);
        let d = diff(&a, &a.clone());
        assert!(d.is_empty());
    }

    #[test]
    fn diff_detects_added_retired_resized() {
        // Old: {1}=[0,1]  {2}=[1,2]  {5}=[4]
        // New: {1}=[0,1]  {2}=[1,2,3]  {4}=[0]
        let old = space(&[(&[1], &[0, 1]), (&[2], &[1, 2]), (&[5], &[4])]);
        let new = space(&[(&[1], &[0, 1]), (&[2], &[1, 2, 3]), (&[4], &[0])]);
        let d = diff(&old, &new);
        // {4} is new id 2 in the canonical order, {5} was old id 2.
        assert_eq!(d.added, vec![GroupId::new(2)]);
        assert_eq!(d.retired, vec![GroupId::new(2)]);
        assert_eq!(d.resized, vec![(GroupId::new(1), GroupId::new(1))]);
    }

    #[test]
    fn survivor_map_is_monotone_by_construction() {
        let old = space(&[(&[0], &[0]), (&[2], &[0]), (&[4], &[0]), (&[6], &[0])]);
        let new = space(&[(&[2], &[0]), (&[3], &[0]), (&[6], &[0])]);
        let d = diff(&old, &new);
        // Survivors: {2} (old 1 → new 0), {6} (old 3 → new 2).
        let old_survivors: Vec<u32> = (0..old.len() as u32)
            .filter(|&i| !d.retired.contains(&GroupId::new(i)))
            .collect();
        let new_survivors: Vec<u32> = (0..new.len() as u32)
            .filter(|&j| !d.added.contains(&GroupId::new(j)))
            .collect();
        assert_eq!(old_survivors.len(), new_survivors.len());
        assert_eq!(old_survivors, vec![1, 3]);
        assert_eq!(new_survivors, vec![0, 2]);
        for (o, n) in old_survivors.iter().zip(&new_survivors) {
            assert_eq!(
                old.get(GroupId::new(*o)).description,
                new.get(GroupId::new(*n)).description
            );
        }
    }

    #[test]
    fn delta_discovery_observes_each_user_once_on_arrival() {
        use vexus_data::{Schema, UserDataBuilder, UserId};
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let mut b = UserDataBuilder::new(s);
        for i in 0..6 {
            let u = b.user(&format!("u{i}"));
            b.set_demo(u, g, if i < 4 { "female" } else { "male" })
                .unwrap();
        }
        let i0 = b.item("x", None);
        let data = b.build();
        let vocab = Vocabulary::build(&data);
        let mut dd = DeltaDiscovery::new(
            StreamFimConfig {
                support: 0.01,
                epsilon: 0.005,
                max_len: 2,
            },
            2,
            data.n_users(),
        );

        let act = |u: u32| Action {
            user: UserId::new(u),
            item: i0,
            value: 1.0,
        };
        // First wave: three "female" users arrive (one twice — observed once).
        assert_eq!(
            dd.observe_arrivals(&data, &vocab, &[act(0), act(1), act(0), act(2)]),
            3
        );
        let (first, d0) = dd.epoch();
        assert_eq!(first.len(), 1, "one frequent group: gender=female");
        assert_eq!(d0.added.len(), 1);
        assert!(d0.retired.is_empty() && d0.resized.is_empty());

        // Second wave: another female (resizes) and two males (add a group).
        assert_eq!(
            dd.observe_arrivals(&data, &vocab, &[act(3), act(4), act(5), act(99)]),
            3
        );
        let (second, d1) = dd.epoch();
        assert_eq!(second.len(), 2);
        assert_eq!(d1.added.len(), 1, "gender=male crosses the floor");
        assert_eq!(d1.resized.len(), 1, "gender=female grew");
        assert!(d1.retired.is_empty());
        assert_eq!(dd.arrivals(), 6);

        // Nothing new → empty delta, identical space.
        let (third, d2) = dd.epoch();
        assert!(d2.is_empty());
        assert_eq!(third, second);
        assert_eq!(dd.groups(), &second);
    }

    #[test]
    fn arrivals_in_id_order_match_batch_discovery() {
        use crate::discovery::{GroupDiscovery, StreamFimDiscovery};
        use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let vocab = Vocabulary::build(&ds.data);
        let cfg = StreamFimConfig {
            support: 0.05,
            epsilon: 0.01,
            max_len: 3,
        };
        let batch = StreamFimDiscovery::new(cfg.clone()).discover(&ds.data, &vocab);
        let mut dd = DeltaDiscovery::new(cfg, 1, ds.data.n_users());
        // One arrival per user, in id order: the batch backend's stream.
        let arrivals: Vec<Action> = ds
            .data
            .users()
            .map(|user| Action {
                user,
                item: vexus_data::ItemId::new(0),
                value: 1.0,
            })
            .collect();
        assert_eq!(
            dd.observe_arrivals(&ds.data, &vocab, &arrivals),
            ds.data.n_users()
        );
        let (live, delta) = dd.epoch();
        // Same space, canonical order (the batch space re-sorted).
        assert_eq!(live.len(), batch.groups.len());
        assert_eq!(live, canonicalize(batch.groups));
        assert_eq!(delta.added.len(), live.len());
    }
}
