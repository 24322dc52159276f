//! Columnar storage for user data and the token vocabulary.
//!
//! A [`UserData`] holds, per the paper's model:
//!
//! * one row per **user** with a [`ValueId`] per schema attribute
//!   (demographics, column-major),
//! * a table of **items** (books, movies, papers, …) with an optional
//!   category,
//! * a list of **actions** `[user, item, value]` with a CSR index for
//!   per-user iteration.
//!
//! The [`Vocabulary`] flattens `(attribute, value)` pairs into dense
//! [`TokenId`]s; each user's sorted token set is the "transaction" consumed
//! by the frequent-itemset miners in `vexus-mining`, whose closed patterns
//! become the user groups VEXUS explores.

use crate::error::DataError;
use crate::ids::{AttrId, ItemId, TokenId, UserId, ValueId};
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One user action under the generic `[user, item, value]` schema.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Action {
    /// Acting user.
    pub user: UserId,
    /// Target item.
    pub item: ItemId,
    /// Action value (rating score, count, …).
    pub value: f32,
}

/// The immutable item side of a dataset: names, categories and category
/// labels. Split out of [`UserData`] and shared behind an [`Arc`] so the
/// N per-shard projections of [`UserData::project_users`] reference one
/// catalog instead of holding N copies of it.
///
/// Fields are `pub(crate)` so the sibling [`crate::snapshot`] codec can
/// encode/decode the flat tables directly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ItemCatalog {
    pub(crate) item_names: Vec<String>,
    /// Per item: index into `category_labels`, `u32::MAX` = none.
    pub(crate) item_categories: Vec<u32>,
    pub(crate) category_labels: Vec<String>,
}

impl ItemCatalog {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.item_names.len()
    }

    /// Whether the catalog has no items.
    pub fn is_empty(&self) -> bool {
        self.item_names.is_empty()
    }

    /// Display name of an item.
    pub fn name(&self, item: ItemId) -> &str {
        &self.item_names[item.index()]
    }

    /// Category label of an item, if any.
    pub fn category(&self, item: ItemId) -> Option<&str> {
        let idx = self.item_categories[item.index()];
        if idx == u32::MAX {
            None
        } else {
            Some(&self.category_labels[idx as usize])
        }
    }

    /// All category labels.
    pub fn category_labels(&self) -> &[String] {
        &self.category_labels
    }

    /// Heap bytes owned by the catalog (string contents + tables).
    pub fn heap_bytes(&self) -> usize {
        string_table_bytes(&self.item_names)
            + self.item_categories.capacity() * std::mem::size_of::<u32>()
            + string_table_bytes(&self.category_labels)
    }
}

/// Heap bytes of a string table: the `Vec<String>` spine plus each
/// string's own buffer.
fn string_table_bytes(strings: &[String]) -> usize {
    std::mem::size_of_val(strings) + strings.iter().map(|s| s.capacity()).sum::<usize>()
}

/// Immutable columnar user dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserData {
    /// Shared schema: projections hold the same `Arc`, so N per-shard
    /// projections pay for one copy of the attribute dictionaries.
    schema: Arc<Schema>,
    user_names: Vec<String>,
    /// `columns[attr][user]` = value of `attr` for `user`.
    columns: Vec<Vec<ValueId>>,
    /// Shared item tables; projections hold the same `Arc`.
    items: Arc<ItemCatalog>,
    actions: Vec<Action>,
    /// CSR offsets into `actions_by_user`: actions of user `u` are
    /// `actions_by_user[user_offsets[u] .. user_offsets[u+1]]`.
    user_offsets: Vec<u32>,
    actions_by_user: Vec<u32>,
}

impl UserData {
    /// The attribute schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.user_names.len()
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.actions.len()
    }

    /// All actions, in insertion order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Display name of a user.
    pub fn user_name(&self, user: UserId) -> &str {
        &self.user_names[user.index()]
    }

    /// Display name of an item.
    pub fn item_name(&self, item: ItemId) -> &str {
        self.items.name(item)
    }

    /// Category label of an item, if any.
    pub fn item_category(&self, item: ItemId) -> Option<&str> {
        self.items.category(item)
    }

    /// All item-category labels.
    pub fn item_category_labels(&self) -> &[String] {
        self.items.category_labels()
    }

    /// The shared item catalog. Projections of this dataset return the
    /// same `Arc` (pointer-equal), so holding many projections costs one
    /// catalog.
    pub fn item_catalog(&self) -> &Arc<ItemCatalog> {
        &self.items
    }

    /// The shared schema handle (pointer-equal across projections).
    pub fn schema_arc(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Replace the item catalog, keeping everything else. Snapshot load
    /// uses this to install the decoded catalog so a loaded engine's item
    /// tables come from the snapshot, not from whatever dataset the caller
    /// happened to pair with it.
    pub fn with_item_catalog(mut self, items: Arc<ItemCatalog>) -> UserData {
        self.items = items;
        self
    }

    /// Value of `attr` for `user`.
    pub fn value(&self, user: UserId, attr: AttrId) -> ValueId {
        self.columns[attr.index()][user.index()]
    }

    /// The full column of `attr` (one entry per user).
    pub fn column(&self, attr: AttrId) -> &[ValueId] {
        &self.columns[attr.index()]
    }

    /// Iterate over a user's actions.
    pub fn user_actions(&self, user: UserId) -> impl Iterator<Item = &Action> + '_ {
        let lo = self.user_offsets[user.index()] as usize;
        let hi = self.user_offsets[user.index() + 1] as usize;
        self.actions_by_user[lo..hi]
            .iter()
            .map(move |&i| &self.actions[i as usize])
    }

    /// Number of actions by `user`.
    pub fn user_activity(&self, user: UserId) -> usize {
        (self.user_offsets[user.index() + 1] - self.user_offsets[user.index()]) as usize
    }

    /// Iterate over all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> {
        (0..self.user_names.len() as u32).map(UserId::new)
    }

    /// Project the dataset onto a subset of users — e.g. one shard of a
    /// [`crate::shard::ShardPlan`]. `members` must be strictly ascending
    /// global user ids; they become the projection's dense local ids
    /// `0..members.len()` in the same order. The schema, items and category
    /// tables are carried over unchanged (so `ValueId`s — and hence any
    /// global `Vocabulary` — stay valid); actions are filtered to the kept
    /// users and the CSR index is rebuilt.
    ///
    /// The item catalog is *shared*, not cloned: the projection holds the
    /// same [`Arc<ItemCatalog>`], so N concurrent shard projections of a
    /// huge catalog cost one copy of the item tables.
    pub fn project_users(&self, members: &[u32]) -> UserData {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be strictly ascending"
        );
        let mut local = vec![u32::MAX; self.n_users()];
        for (i, &g) in members.iter().enumerate() {
            local[g as usize] = i as u32;
        }
        let user_names = members
            .iter()
            .map(|&g| self.user_names[g as usize].clone())
            .collect();
        let columns = self
            .columns
            .iter()
            .map(|col| members.iter().map(|&g| col[g as usize]).collect())
            .collect();
        let actions: Vec<Action> = self
            .actions
            .iter()
            .filter(|a| local[a.user.index()] != u32::MAX)
            .map(|a| Action {
                user: UserId::new(local[a.user.index()]),
                ..*a
            })
            .collect();
        let (user_offsets, actions_by_user) = csr_index(members.len(), &actions);
        UserData {
            schema: Arc::clone(&self.schema),
            user_names,
            columns,
            items: Arc::clone(&self.items),
            actions,
            user_offsets,
            actions_by_user,
        }
    }

    /// Split off every action, leaving a demographics-only dataset with an
    /// empty (but valid) CSR action index. The returned actions are in
    /// insertion order, so replaying them through
    /// [`UserData::append_actions`] — in any batching — reconstructs this
    /// dataset exactly. This is the live-deployment splitter: demographics
    /// are known up front, actions arrive over an
    /// [`crate::stream::ActionStream`].
    pub fn split_actions(mut self) -> (UserData, Vec<Action>) {
        let actions = std::mem::take(&mut self.actions);
        let (user_offsets, actions_by_user) = csr_index(self.n_users(), &[]);
        self.user_offsets = user_offsets;
        self.actions_by_user = actions_by_user;
        (self, actions)
    }

    /// Append a batch of actions, patching the CSR per-user index in place
    /// instead of rebuilding it. Actions referencing unknown users or items
    /// are skipped (a live stream may race ahead of the demographic
    /// universe); the number of actions actually applied is returned.
    ///
    /// The result is indistinguishable from rebuilding: appending in any
    /// batching yields the same dataset as building with all actions at
    /// once (appended actions keep insertion order, so within each user
    /// they land after every existing action — exactly where the full
    /// CSR-index rebuild would put them). Pinned by tests below.
    pub fn append_actions(&mut self, batch: &[Action]) -> usize {
        let n_users = self.n_users();
        let n_items = self.n_items();
        let applied_from = self.actions.len();
        self.actions.extend(
            batch
                .iter()
                .filter(|a| a.user.index() < n_users && a.item.index() < n_items),
        );
        let applied = &self.actions[applied_from..];
        if applied.is_empty() {
            return 0;
        }

        // Per-user addition counts → new offsets (old + running additions).
        let mut added = vec![0u32; n_users];
        for a in applied {
            added[a.user.index()] += 1;
        }
        let old_offsets = std::mem::take(&mut self.user_offsets);
        let mut new_offsets = Vec::with_capacity(n_users + 1);
        let mut shift = 0u32;
        new_offsets.push(0);
        for u in 0..n_users {
            shift += added[u];
            new_offsets.push(old_offsets[u + 1] + shift);
        }

        // Shift existing per-user slices toward the back, last user first:
        // every destination is at or past its source, so the descending
        // walk never overwrites a slice it still has to move.
        self.actions_by_user
            .resize(self.actions_by_user.len() + applied.len(), 0);
        for u in (0..n_users).rev() {
            let src = old_offsets[u] as usize..old_offsets[u + 1] as usize;
            let dst = new_offsets[u] as usize;
            if dst != src.start && !src.is_empty() {
                self.actions_by_user.copy_within(src, dst);
            }
        }

        // Scatter the new action indices into each user's tail slot, in
        // insertion order (the same order the full rebuild preserves).
        let mut cursor: Vec<u32> = (0..n_users)
            .map(|u| new_offsets[u] + (old_offsets[u + 1] - old_offsets[u]))
            .collect();
        for (i, a) in applied.iter().enumerate() {
            let slot = cursor[a.user.index()];
            self.actions_by_user[slot as usize] = (applied_from + i) as u32;
            cursor[a.user.index()] += 1;
        }
        self.user_offsets = new_offsets;
        applied.len()
    }

    /// Human-readable `attr=value` description for a user's demographics.
    pub fn describe_user(&self, user: UserId) -> String {
        let mut parts = Vec::with_capacity(self.schema.len());
        for (attr, def) in self.schema.iter() {
            let v = self.value(user, attr);
            if !v.is_missing() {
                parts.push(format!("{}={}", def.name, self.schema.value_label(attr, v)));
            }
        }
        parts.join(", ")
    }
}

/// Build the CSR per-user action index: offsets plus action indices grouped
/// by user (insertion order preserved within a user).
fn csr_index(n_users: usize, actions: &[Action]) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; n_users + 1];
    for a in actions {
        counts[a.user.index() + 1] += 1;
    }
    for i in 1..=n_users {
        counts[i] += counts[i - 1];
    }
    let user_offsets = counts.clone();
    let mut cursor = counts;
    let mut actions_by_user = vec![0u32; actions.len()];
    for (i, a) in actions.iter().enumerate() {
        let slot = cursor[a.user.index()];
        actions_by_user[slot as usize] = i as u32;
        cursor[a.user.index()] += 1;
    }
    (user_offsets, actions_by_user)
}

/// Builder for [`UserData`]. Users, items and actions may be added in any
/// interleaving; `build` finalizes the CSR action index.
#[derive(Debug, Default)]
pub struct UserDataBuilder {
    schema: Schema,
    user_names: Vec<String>,
    user_by_name: HashMap<String, UserId>,
    columns: Vec<Vec<ValueId>>,
    item_names: Vec<String>,
    item_by_name: HashMap<String, ItemId>,
    item_categories: Vec<u32>,
    item_category_labels: Vec<String>,
    item_category_ids: HashMap<String, u32>,
    actions: Vec<Action>,
}

impl UserDataBuilder {
    /// Start building over `schema`. The schema may still grow value
    /// dictionaries during ingestion.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        Self {
            schema,
            columns,
            ..Default::default()
        }
    }

    /// Access the evolving schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of users added so far.
    pub fn n_users(&self) -> usize {
        self.user_names.len()
    }

    /// Add (or look up) a user by name. New users start with all attributes
    /// missing.
    pub fn user(&mut self, name: &str) -> UserId {
        if let Some(&u) = self.user_by_name.get(name) {
            return u;
        }
        let u = UserId::new(self.user_names.len() as u32);
        self.user_by_name.insert(name.to_string(), u);
        self.user_names.push(name.to_string());
        for col in &mut self.columns {
            col.push(ValueId::MISSING);
        }
        u
    }

    /// Look up an existing user.
    pub fn find_user(&self, name: &str) -> Option<UserId> {
        self.user_by_name.get(name).copied()
    }

    /// Set a demographic from a raw string (interned/binned per the schema).
    pub fn set_demo(&mut self, user: UserId, attr: AttrId, raw: &str) -> Result<(), DataError> {
        let v = self.schema.intern_value(attr, raw)?;
        self.columns[attr.index()][user.index()] = v;
        Ok(())
    }

    /// Set a demographic to an already-interned value id.
    pub fn set_demo_id(&mut self, user: UserId, attr: AttrId, value: ValueId) {
        self.columns[attr.index()][user.index()] = value;
    }

    /// Set a numeric demographic (binned per the schema).
    pub fn set_demo_numeric(&mut self, user: UserId, attr: AttrId, x: f64) {
        let v = self.schema.bin_numeric(attr, x);
        self.columns[attr.index()][user.index()] = v;
    }

    /// Add (or look up) an item; `category` is recorded on first sight.
    pub fn item(&mut self, name: &str, category: Option<&str>) -> ItemId {
        if let Some(&i) = self.item_by_name.get(name) {
            return i;
        }
        let i = ItemId::new(self.item_names.len() as u32);
        self.item_by_name.insert(name.to_string(), i);
        self.item_names.push(name.to_string());
        let cat = match category {
            None => u32::MAX,
            Some(c) => match self.item_category_ids.get(c) {
                Some(&id) => id,
                None => {
                    let id = self.item_category_labels.len() as u32;
                    self.item_category_ids.insert(c.to_string(), id);
                    self.item_category_labels.push(c.to_string());
                    id
                }
            },
        };
        self.item_categories.push(cat);
        i
    }

    /// Record one `[user, item, value]` action.
    pub fn action(&mut self, user: UserId, item: ItemId, value: f32) {
        self.actions.push(Action { user, item, value });
    }

    /// Derive a new attribute whose per-user value is computed by `f` from
    /// the user's actions (e.g. "favorite genre", "activity level"). The
    /// attribute must already exist in the schema; `f` returns a raw string
    /// to intern (empty string = missing).
    pub fn derive_attribute<F>(&mut self, attr: AttrId, mut f: F) -> Result<(), DataError>
    where
        F: FnMut(UserId, &[Action]) -> String,
    {
        // Group actions per user (transiently) so `f` sees a slice.
        let mut per_user: Vec<Vec<Action>> = vec![Vec::new(); self.user_names.len()];
        for a in &self.actions {
            per_user[a.user.index()].push(*a);
        }
        for (u, acts) in per_user.iter().enumerate() {
            let user = UserId::new(u as u32);
            let raw = f(user, acts);
            let v = self.schema.intern_value(attr, &raw)?;
            self.columns[attr.index()][user.index()] = v;
        }
        Ok(())
    }

    /// Finalize into an immutable [`UserData`].
    pub fn build(self) -> UserData {
        let (user_offsets, actions_by_user) = csr_index(self.user_names.len(), &self.actions);
        UserData {
            schema: Arc::new(self.schema),
            user_names: self.user_names,
            columns: self.columns,
            items: Arc::new(ItemCatalog {
                item_names: self.item_names,
                item_categories: self.item_categories,
                category_labels: self.item_category_labels,
            }),
            actions: self.actions,
            user_offsets,
            actions_by_user,
        }
    }
}

/// Dense vocabulary of `(attribute, value)` tokens.
///
/// The paper's inverted-index and mining layers treat every demographic
/// value a user carries as an "item" in a transaction; the vocabulary is the
/// bijection between those pairs and dense token ids.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Vocabulary {
    pub(crate) token_of: HashMap<(AttrId, ValueId), TokenId>,
    pub(crate) pairs: Vec<(AttrId, ValueId)>,
}

impl Vocabulary {
    /// Build the vocabulary over every `(attr, value)` pair that actually
    /// occurs in `data` (missing values excluded). Token ids are assigned in
    /// `(attr, value)` order, so they are deterministic for a given dataset.
    pub fn build(data: &UserData) -> Self {
        let mut pairs: Vec<(AttrId, ValueId)> = Vec::new();
        for (attr, _) in data.schema().iter() {
            let mut seen = vec![false; data.schema().cardinality(attr)];
            for &v in data.column(attr) {
                if !v.is_missing() {
                    seen[v.index()] = true;
                }
            }
            for (i, s) in seen.iter().enumerate() {
                if *s {
                    pairs.push((attr, ValueId::new(i as u32)));
                }
            }
        }
        let token_of = pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, TokenId::new(i as u32)))
            .collect();
        Self { token_of, pairs }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Token for an `(attr, value)` pair, if it occurs in the data.
    pub fn token(&self, attr: AttrId, value: ValueId) -> Option<TokenId> {
        self.token_of.get(&(attr, value)).copied()
    }

    /// The `(attr, value)` pair behind a token.
    pub fn pair(&self, token: TokenId) -> (AttrId, ValueId) {
        self.pairs[token.index()]
    }

    /// Human-readable `attr=value` label of a token.
    pub fn label(&self, token: TokenId, schema: &Schema) -> String {
        let (a, v) = self.pair(token);
        format!("{}={}", schema.attr_name(a), schema.value_label(a, v))
    }

    /// The sorted token set ("transaction") of one user.
    pub fn user_tokens(&self, data: &UserData, user: UserId) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(data.schema().len());
        for (attr, _) in data.schema().iter() {
            let v = data.value(user, attr);
            if !v.is_missing() {
                if let Some(t) = self.token(attr, v) {
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// All users' transactions, indexable by `UserId`.
    pub fn all_transactions(&self, data: &UserData) -> Vec<Vec<TokenId>> {
        data.users().map(|u| self.user_tokens(data, u)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> UserData {
        let mut s = Schema::new();
        let gender = s.add_categorical("gender");
        let age = s.add_numeric_labeled("age", &[30.0], &["young", "old"]);
        let mut b = UserDataBuilder::new(s);
        let mary = b.user("mary");
        let bob = b.user("bob");
        b.set_demo(mary, gender, "female").unwrap();
        b.set_demo(bob, gender, "male").unwrap();
        b.set_demo_numeric(mary, age, 25.0);
        b.set_demo_numeric(bob, age, 45.0);
        let book = b.item("Mr Miracle", Some("fiction"));
        let other = b.item("Dune", Some("scifi"));
        b.action(mary, book, 4.0);
        b.action(bob, book, 2.0);
        b.action(mary, other, 5.0);
        b.build()
    }

    #[test]
    fn builder_round_trips_demographics() {
        let d = small();
        let gender = d.schema().attr("gender").unwrap();
        let mary = UserId::new(0);
        assert_eq!(
            d.schema().value_label(gender, d.value(mary, gender)),
            "female"
        );
        assert_eq!(d.describe_user(mary), "gender=female, age=young");
    }

    #[test]
    fn csr_action_index_is_correct() {
        let d = small();
        let mary = UserId::new(0);
        let bob = UserId::new(1);
        let mary_actions: Vec<_> = d.user_actions(mary).collect();
        assert_eq!(mary_actions.len(), 2);
        assert!(mary_actions.iter().all(|a| a.user == mary));
        assert_eq!(d.user_activity(bob), 1);
        assert_eq!(d.n_actions(), 3);
    }

    #[test]
    fn items_and_categories() {
        let d = small();
        assert_eq!(d.n_items(), 2);
        assert_eq!(d.item_name(ItemId::new(0)), "Mr Miracle");
        assert_eq!(d.item_category(ItemId::new(0)), Some("fiction"));
        assert_eq!(d.item_category_labels(), &["fiction", "scifi"]);
    }

    #[test]
    fn duplicate_user_and_item_names_dedupe() {
        let mut b = UserDataBuilder::new(Schema::new());
        let a = b.user("x");
        let a2 = b.user("x");
        assert_eq!(a, a2);
        let i = b.item("y", None);
        let i2 = b.item("y", Some("ignored-on-second-sight"));
        assert_eq!(i, i2);
        let d = b.build();
        assert_eq!(d.n_users(), 1);
        assert_eq!(d.item_category(i), None);
    }

    #[test]
    fn vocabulary_is_bijective_and_deterministic() {
        let d = small();
        let v = Vocabulary::build(&d);
        // gender has 2 values, age has 2 used bins.
        assert_eq!(v.len(), 4);
        for t in 0..v.len() as u32 {
            let tok = TokenId::new(t);
            let (a, val) = v.pair(tok);
            assert_eq!(v.token(a, val), Some(tok));
        }
        let v2 = Vocabulary::build(&d);
        assert_eq!(v.len(), v2.len());
        for t in 0..v.len() as u32 {
            assert_eq!(v.pair(TokenId::new(t)), v2.pair(TokenId::new(t)));
        }
    }

    #[test]
    fn user_tokens_are_sorted_and_complete() {
        let d = small();
        let v = Vocabulary::build(&d);
        for u in d.users() {
            let toks = v.user_tokens(&d, u);
            assert_eq!(toks.len(), 2); // gender + age, none missing
            assert!(toks.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn missing_values_are_skipped_in_tokens() {
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let mut b = UserDataBuilder::new(s);
        let u = b.user("anon");
        let known = b.user("known");
        b.set_demo(known, g, "female").unwrap();
        let d = b.build();
        let v = Vocabulary::build(&d);
        assert!(v.user_tokens(&d, u).is_empty());
        assert_eq!(v.user_tokens(&d, known).len(), 1);
    }

    #[test]
    fn derive_attribute_from_actions() {
        let mut s = Schema::new();
        let _g = s.add_categorical("gender");
        let act = s.add_categorical("activity");
        let mut b = UserDataBuilder::new(s);
        let u1 = b.user("reader");
        let u0 = b.user("lurker");
        let i = b.item("book", None);
        b.action(u1, i, 5.0);
        b.action(u1, i, 4.0);
        b.derive_attribute(act, |_, acts| {
            if acts.len() >= 2 {
                "active".into()
            } else {
                "inactive".into()
            }
        })
        .unwrap();
        let d = b.build();
        assert_eq!(d.schema().value_label(act, d.value(u1, act)), "active");
        assert_eq!(d.schema().value_label(act, d.value(u0, act)), "inactive");
    }

    #[test]
    fn describe_user_skips_missing_values() {
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let _c = s.add_categorical("city");
        let mut b = UserDataBuilder::new(s);
        let u = b.user("half-known");
        b.set_demo(u, g, "female").unwrap();
        let d = b.build();
        assert_eq!(d.describe_user(u), "gender=female");
    }

    #[test]
    fn user_with_no_actions_iterates_empty() {
        let mut b = UserDataBuilder::new(Schema::new());
        let idle = b.user("idle");
        let busy = b.user("busy");
        let i = b.item("x", None);
        b.action(busy, i, 1.0);
        let d = b.build();
        assert_eq!(d.user_actions(idle).count(), 0);
        assert_eq!(d.user_activity(idle), 0);
        assert_eq!(d.user_actions(busy).count(), 1);
    }

    #[test]
    fn project_users_keeps_demographics_actions_and_vocab() {
        let d = small();
        // Keep only mary (global id 0).
        let p = d.project_users(&[0]);
        assert_eq!(p.n_users(), 1);
        assert_eq!(p.user_name(UserId::new(0)), "mary");
        assert_eq!(
            p.describe_user(UserId::new(0)),
            d.describe_user(UserId::new(0))
        );
        // Items are shared; only mary's two actions survive, re-indexed.
        assert_eq!(p.n_items(), d.n_items());
        assert_eq!(p.n_actions(), 2);
        assert!(p
            .user_actions(UserId::new(0))
            .all(|a| a.user == UserId::new(0)));
        // The *global* vocabulary still tokenizes projected users: value
        // ids are shared because the schema is shared.
        let vocab = Vocabulary::build(&d);
        assert_eq!(
            vocab.user_tokens(&p, UserId::new(0)),
            vocab.user_tokens(&d, UserId::new(0))
        );
        // Projecting everything is an identity on the visible surface.
        let all = d.project_users(&[0, 1]);
        assert_eq!(all.n_users(), d.n_users());
        assert_eq!(all.n_actions(), d.n_actions());
        // Empty projection is valid.
        let none = d.project_users(&[]);
        assert_eq!(none.n_users(), 0);
        assert_eq!(none.n_actions(), 0);
    }

    #[test]
    fn projections_share_one_item_catalog() {
        let d = small();
        let a = d.project_users(&[0]);
        let b = d.project_users(&[1]);
        // One catalog, three owners — no per-projection clones.
        assert!(Arc::ptr_eq(d.item_catalog(), a.item_catalog()));
        assert!(Arc::ptr_eq(a.item_catalog(), b.item_catalog()));
        // Nested projections still share it.
        let aa = a.project_users(&[0]);
        assert!(Arc::ptr_eq(d.item_catalog(), aa.item_catalog()));
        // The shared catalog serves the same answers as the delegating API.
        assert_eq!(a.item_catalog().len(), a.n_items());
        assert_eq!(a.item_catalog().name(ItemId::new(0)), "Mr Miracle");
        assert_eq!(a.item_catalog().category(ItemId::new(1)), Some("scifi"));
    }

    #[test]
    fn projections_share_one_schema() {
        let d = small();
        let a = d.project_users(&[0]);
        let b = a.project_users(&[0]);
        // The schema rides along by refcount, not by clone — the carried
        // projection seam, partially closed: schema + catalog are shared,
        // user columns/actions are still copied (see ROADMAP).
        assert!(Arc::ptr_eq(d.schema_arc(), a.schema_arc()));
        assert!(Arc::ptr_eq(d.schema_arc(), b.schema_arc()));
        assert_eq!(a.schema().attr("gender"), d.schema().attr("gender"));
    }

    #[test]
    fn catalog_heap_bytes_counts_strings_and_tables() {
        let d = small();
        let cat = d.item_catalog();
        let floor = cat
            .item_names
            .iter()
            .chain(cat.category_labels.iter())
            .map(|s| s.len())
            .sum::<usize>();
        assert!(cat.heap_bytes() >= floor + 2 * std::mem::size_of::<u32>());
        assert_eq!(ItemCatalog::default().heap_bytes(), 0);
    }

    #[test]
    fn with_item_catalog_swaps_only_the_catalog() {
        let d = small();
        let replacement = Arc::new(d.item_catalog().as_ref().clone());
        let swapped = d.clone().with_item_catalog(Arc::clone(&replacement));
        assert!(Arc::ptr_eq(swapped.item_catalog(), &replacement));
        assert!(!Arc::ptr_eq(swapped.item_catalog(), d.item_catalog()));
        assert_eq!(swapped.n_users(), d.n_users());
        assert_eq!(swapped.n_actions(), d.n_actions());
        assert_eq!(swapped.item_name(ItemId::new(0)), "Mr Miracle");
    }

    /// The in-place CSR patch must be indistinguishable from a full
    /// rebuild over the concatenated action list.
    fn assert_csr_matches_rebuild(d: &UserData) {
        let (offsets, by_user) = csr_index(d.n_users(), &d.actions);
        assert_eq!(d.user_offsets, offsets, "offsets != full rebuild");
        assert_eq!(d.actions_by_user, by_user, "index != full rebuild");
    }

    #[test]
    fn split_then_replay_reconstructs_the_dataset() {
        let d = small();
        let full = d.clone();
        let (mut bare, actions) = d.split_actions();
        assert_eq!(bare.n_actions(), 0);
        assert_eq!(bare.n_users(), full.n_users());
        assert!(bare.users().all(|u| bare.user_activity(u) == 0));
        assert_eq!(actions.len(), full.n_actions());
        // Replay in two uneven batches.
        assert_eq!(bare.append_actions(&actions[..1]), 1);
        assert_eq!(bare.append_actions(&actions[1..]), actions.len() - 1);
        assert_eq!(bare.actions(), full.actions());
        assert_eq!(bare.user_offsets, full.user_offsets);
        assert_eq!(bare.actions_by_user, full.actions_by_user);
    }

    #[test]
    fn append_actions_patches_the_csr_in_place() {
        let mut d = small();
        let dune = ItemId::new(1);
        let batch = [
            Action {
                user: UserId::new(1),
                item: dune,
                value: 3.0,
            },
            Action {
                user: UserId::new(0),
                item: dune,
                value: 1.0,
            },
            Action {
                user: UserId::new(1),
                item: ItemId::new(0),
                value: 5.0,
            },
        ];
        assert_eq!(d.append_actions(&batch), 3);
        assert_eq!(d.n_actions(), 6);
        assert_csr_matches_rebuild(&d);
        // Per-user order: old actions first, then the batch in order.
        let bob: Vec<f32> = d.user_actions(UserId::new(1)).map(|a| a.value).collect();
        assert_eq!(bob, vec![2.0, 3.0, 5.0]);
        // Appending nothing is a no-op.
        assert_eq!(d.append_actions(&[]), 0);
        assert_csr_matches_rebuild(&d);
    }

    #[test]
    fn append_actions_skips_unknown_users_and_items() {
        let mut d = small();
        let batch = [
            Action {
                user: UserId::new(99),
                item: ItemId::new(0),
                value: 1.0,
            },
            Action {
                user: UserId::new(0),
                item: ItemId::new(99),
                value: 1.0,
            },
            Action {
                user: UserId::new(0),
                item: ItemId::new(0),
                value: 2.5,
            },
        ];
        assert_eq!(d.append_actions(&batch), 1);
        assert_eq!(d.n_actions(), 4);
        assert_csr_matches_rebuild(&d);
    }

    #[test]
    fn append_in_any_batching_equals_building_at_once() {
        // Seeded pseudo-random action tape over a few users/items, applied
        // in several batch splits; every split must equal the full build.
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let mut b = UserDataBuilder::new(s);
        for i in 0..7 {
            let u = b.user(&format!("u{i}"));
            b.set_demo(u, g, if i % 2 == 0 { "female" } else { "male" })
                .unwrap();
        }
        for i in 0..3 {
            b.item(&format!("i{i}"), None);
        }
        let base = b.build();
        let mut x = 0x9e37u32;
        let tape: Vec<Action> = (0..64)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                Action {
                    user: UserId::new((x >> 8) % 7),
                    item: ItemId::new((x >> 16) % 3),
                    value: (x % 5) as f32,
                }
            })
            .collect();
        let mut at_once = base.clone();
        at_once.append_actions(&tape);
        for split in [1usize, 3, 17, 64] {
            let mut inc = base.clone();
            for chunk in tape.chunks(split) {
                inc.append_actions(chunk);
            }
            assert_eq!(inc.actions(), at_once.actions(), "split={split}");
            assert_eq!(inc.user_offsets, at_once.user_offsets, "split={split}");
            assert_eq!(
                inc.actions_by_user, at_once.actions_by_user,
                "split={split}"
            );
            assert_csr_matches_rebuild(&inc);
        }
    }

    #[test]
    fn empty_dataset_builds() {
        let d = UserDataBuilder::new(Schema::new()).build();
        assert_eq!(d.n_users(), 0);
        assert_eq!(d.n_actions(), 0);
        assert!(Vocabulary::build(&d).is_empty());
    }
}
