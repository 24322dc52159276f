//! Adapters from `vexus-data` datasets to the transaction form consumed by
//! the itemset miners.
//!
//! Each user becomes one transaction: the sorted set of
//! `(attribute, value)` tokens they carry — what LCM's occurrence-deliver
//! step walks, a node's members at a time ([`crate::lcm`]). A
//! [`TransactionDb`] additionally pre-computes per-token tidlists (which
//! users carry a token): what the sharded merge's frequency pruning and
//! exchange scan read. The merge recounts every candidate in one walk over
//! the transactions.

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
}

/// Recount one description from outside the miner: the oracles the miners'
/// and the sharded merge's tests check groups against.
#[cfg(test)]
impl TransactionDb {
    /// Members carrying *all* tokens of `itemset` (intersection of
    /// tidlists). Empty itemset = all users.
    pub(crate) fn itemset_members(&self, itemset: &[TokenId]) -> MemberSet {
        match itemset {
            [] => MemberSet::universe(self.n_transactions() as u32),
            [first, rest @ ..] => {
                let mut acc = self.tidlist(*first).clone();
                for t in rest {
                    acc = acc.intersect(self.tidlist(*t));
                }
                acc
            }
        }
    }

    /// The closure of a member set: every token carried by *all* members
    /// (empty for the empty set).
    pub(crate) fn closure(&self, members: &MemberSet) -> Vec<TokenId> {
        let mut iter = members.iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let mut common: Vec<TokenId> = self.transaction(first).to_vec();
        for user in iter {
            let tx = self.transaction(user);
            common.retain(|t| tx.binary_search(t).is_ok());
        }
        common
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
}
