//! Adapters from `vexus-data` datasets to the transaction form consumed by
//! the itemset miners.
//!
//! Each user becomes one transaction: the sorted set of
//! `(attribute, value)` tokens they carry — what LCM's occurrence-deliver
//! step walks, a node's members at a time ([`crate::lcm`]). A
//! [`TransactionDb`] additionally pre-computes per-token tidlists (which
//! users carry a token): what the sharded merge's frequency pruning and
//! exchange scan read, and the lookup behind
//! [`TransactionDb::itemset_members`] and [`TransactionDb::closure`], which
//! recount one description handed in from outside the miner (the tests'
//! oracles; the sharded merge recounts every candidate in one walk over
//! the transactions instead).

use crate::bitmap::MemberSet;
use vexus_data::{TokenId, UserData, Vocabulary};

/// A vertical transaction database: tokens ↦ users carrying them.
#[derive(Debug, Clone)]
pub struct TransactionDb {
    /// `transactions[user]` = sorted token ids of that user.
    transactions: Vec<Vec<TokenId>>,
    /// `tidlists[token]` = sorted users carrying that token.
    tidlists: Vec<MemberSet>,
    n_tokens: usize,
}

impl TransactionDb {
    /// Build from a dataset and its vocabulary.
    pub fn build(data: &UserData, vocab: &Vocabulary) -> Self {
        let transactions = vocab.all_transactions(data);
        Self::from_transactions(transactions, vocab.len())
    }

    /// Build from raw transactions over a token universe of size `n_tokens`.
    pub fn from_transactions(transactions: Vec<Vec<TokenId>>, n_tokens: usize) -> Self {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_tokens];
        for (user, toks) in transactions.iter().enumerate() {
            for &t in toks {
                lists[t.index()].push(user as u32);
            }
        }
        let tidlists = lists.into_iter().map(MemberSet::from_sorted).collect();
        Self {
            transactions,
            tidlists,
            n_tokens,
        }
    }

    /// Number of transactions (users).
    pub fn n_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// Size of the token universe.
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// The users carrying `token`.
    pub fn tidlist(&self, token: TokenId) -> &MemberSet {
        &self.tidlists[token.index()]
    }

    /// Support (number of carriers) of a token.
    pub fn support(&self, token: TokenId) -> usize {
        self.tidlists[token.index()].len()
    }

    /// The transaction (sorted tokens) of one user.
    pub fn transaction(&self, user: u32) -> &[TokenId] {
        &self.transactions[user as usize]
    }

    /// All transactions.
    pub fn transactions(&self) -> &[Vec<TokenId>] {
        &self.transactions
    }

    /// Members carrying *all* tokens of `itemset` (intersection of
    /// tidlists). Empty itemset = all users.
    ///
    /// Intersects in ascending-support order: starting from the rarest
    /// token bounds every later intersection by the smallest tidlist, and
    /// the accumulator can only shrink from there. The result is identical
    /// for any order (intersection is commutative).
    pub fn itemset_members(&self, itemset: &[TokenId]) -> MemberSet {
        match itemset {
            [] => MemberSet::universe(self.transactions.len() as u32),
            [t] => self.tidlist(*t).clone(),
            _ => {
                let mut order: Vec<TokenId> = itemset.to_vec();
                order.sort_unstable_by_key(|t| self.tidlists[t.index()].len());
                let mut acc = self.tidlist(order[0]).clone();
                for t in &order[1..] {
                    acc = acc.intersect(self.tidlist(*t));
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// The closure of a member set: every token carried by *all* members.
    /// This is the "common attributes" the paper says discovery returns per
    /// group, and the closure operator of LCM.
    ///
    /// Token-major: the candidate tokens are the shortest member
    /// transaction (any common token must appear in every member's
    /// transaction, so the shortest one bounds the candidates), and each
    /// candidate is verified with one galloping
    /// [`MemberSet::contains_all`] subset check against its tidlist —
    /// early-exiting on the first member that does not carry it — instead
    /// of a `retain` scan over every member's transaction.
    pub fn closure(&self, members: &MemberSet) -> Vec<TokenId> {
        let Some(smallest) = members
            .iter()
            .min_by_key(|&u| self.transactions[u as usize].len())
        else {
            // Empty member set: closed under everything; return empty to
            // keep descriptions meaningful.
            return Vec::new();
        };
        self.transactions[smallest as usize]
            .iter()
            .copied()
            .filter(|t| self.tidlists[t.index()].contains_all(members))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(v: &[u32]) -> Vec<TokenId> {
        v.iter().map(|&t| TokenId::new(t)).collect()
    }

    fn db() -> TransactionDb {
        // 4 users over 4 tokens.
        TransactionDb::from_transactions(
            vec![toks(&[0, 1]), toks(&[0, 1, 2]), toks(&[1, 2]), toks(&[3])],
            4,
        )
    }

    #[test]
    fn tidlists_are_inverted_transactions() {
        let db = db();
        assert_eq!(db.tidlist(TokenId::new(0)).as_slice(), &[0, 1]);
        assert_eq!(db.tidlist(TokenId::new(1)).as_slice(), &[0, 1, 2]);
        assert_eq!(db.tidlist(TokenId::new(3)).as_slice(), &[3]);
        assert_eq!(db.support(TokenId::new(1)), 3);
        assert_eq!(db.n_transactions(), 4);
        assert_eq!(db.n_tokens(), 4);
    }

    #[test]
    fn itemset_members_intersects() {
        let db = db();
        assert_eq!(db.itemset_members(&toks(&[0, 1])).as_slice(), &[0, 1]);
        assert_eq!(db.itemset_members(&toks(&[1, 2])).as_slice(), &[1, 2]);
        assert_eq!(db.itemset_members(&toks(&[0, 3])).as_slice(), &[] as &[u32]);
        assert_eq!(db.itemset_members(&[]).len(), 4);
    }

    #[test]
    fn closure_finds_common_tokens() {
        let db = db();
        let members = MemberSet::from_unsorted(vec![0, 1]);
        assert_eq!(db.closure(&members), toks(&[0, 1]));
        let all = MemberSet::from_unsorted(vec![0, 1, 2]);
        assert_eq!(db.closure(&all), toks(&[1]));
        let disjoint = MemberSet::from_unsorted(vec![0, 3]);
        assert!(db.closure(&disjoint).is_empty());
        assert!(db.closure(&MemberSet::empty()).is_empty());
    }

    #[test]
    fn closure_of_itemset_members_contains_itemset() {
        let db = db();
        for set in [toks(&[0]), toks(&[1]), toks(&[0, 1]), toks(&[2])] {
            let members = db.itemset_members(&set);
            let closure = db.closure(&members);
            for t in &set {
                assert!(closure.contains(t), "closure must contain original itemset");
            }
        }
    }

    /// The original member-major closure: clone the first member's
    /// transaction and `retain`-scan it against every other member's.
    /// Kept as the reference implementation the token-major rewrite is
    /// pinned against.
    fn closure_member_major(db: &TransactionDb, members: &MemberSet) -> Vec<TokenId> {
        let mut iter = members.iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let mut common: Vec<TokenId> = db.transaction(first).to_vec();
        for user in iter {
            let tx = db.transaction(user);
            common.retain(|t| tx.binary_search(t).is_ok());
            if common.is_empty() {
                break;
            }
        }
        common
    }

    /// Left-to-right tidlist intersection, the original `itemset_members`.
    fn itemset_members_in_order(db: &TransactionDb, itemset: &[TokenId]) -> MemberSet {
        match itemset {
            [] => MemberSet::universe(db.n_transactions() as u32),
            [first, rest @ ..] => {
                let mut acc = db.tidlist(*first).clone();
                for t in rest {
                    acc = acc.intersect(db.tidlist(*t));
                }
                acc
            }
        }
    }

    use proptest::prelude::*;

    /// A random transaction database over a `n_tokens` universe; each raw
    /// transaction is reduced mod `n_tokens`, sorted and dedup'd.
    fn db_from_raw(n_tokens: u32, raw_txs: &[Vec<u32>]) -> TransactionDb {
        let transactions: Vec<Vec<TokenId>> = raw_txs
            .iter()
            .map(|tx| {
                let mut v: Vec<u32> = tx.iter().map(|t| t % n_tokens).collect();
                v.sort_unstable();
                v.dedup();
                v.into_iter().map(TokenId::new).collect()
            })
            .collect();
        TransactionDb::from_transactions(transactions, n_tokens as usize)
    }

    proptest! {
        #[test]
        fn prop_token_major_closure_matches_member_major(
            n_tokens in 2u32..24,
            raw_txs in proptest::collection::vec(
                proptest::collection::vec(0u32..1_000, 0..10), 2..40),
            picks in proptest::collection::vec(0u32..10_000, 0..12)
        ) {
            let db = db_from_raw(n_tokens, &raw_txs);
            let n = db.n_transactions() as u32;
            let members = MemberSet::from_unsorted(
                picks.into_iter().map(|p| p % n).collect(),
            );
            prop_assert_eq!(db.closure(&members), closure_member_major(&db, &members));
        }

        #[test]
        fn prop_support_ordered_intersection_matches_in_order(
            n_tokens in 2u32..24,
            raw_txs in proptest::collection::vec(
                proptest::collection::vec(0u32..1_000, 0..10), 2..40),
            picks in proptest::collection::vec(0u32..1_000, 0..6)
        ) {
            let db = db_from_raw(n_tokens, &raw_txs);
            let mut itemset: Vec<TokenId> =
                picks.into_iter().map(|p| TokenId::new(p % n_tokens)).collect();
            itemset.sort_unstable();
            itemset.dedup();
            prop_assert_eq!(
                db.itemset_members(&itemset).as_slice(),
                itemset_members_in_order(&db, &itemset).as_slice()
            );
        }
    }
}
