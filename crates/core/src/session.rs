//! The exploration session: GROUPVIZ, CONTEXT, STATS, HISTORY, MEMO and the
//! Focus view as one state machine.
//!
//! "In GROUPVIZ, an explorer examines a limited number of groups … She can
//! then ask to navigate to other groups which are similar to what she has
//! already liked. The explorer preference, captured in the form of
//! feedback, is illustrated in CONTEXT. The sequence of selected groups is
//! visualized in HISTORY. The explorer can backtrack to any previous step
//! in HISTORY. … an exhaustive set of statistics will be shown in STATS. At
//! any stage of the process, the explorer can bookmark a group or a user in
//! MEMO. The analysis ends when the explorer is satisfied with her
//! collection in MEMO, which serves as her analysis goal."
//!
//! ## Session = state over a shared, immutable engine
//!
//! A [`Session`] is generic over how it holds the engine — any
//! `Deref<Target = Vexus>`. The engine is immutable post-build, so any
//! number of sessions, on any number of threads, may hold the same one.
//! Two instantiations matter:
//!
//! * [`ExplorationSession`] (`Session<&Vexus>`) borrows it — the
//!   single-owner shape [`crate::engine::Vexus::session`] returns,
//! * [`crate::engine::OwnedSession`] (`Session<Arc<Vexus>>`) owns a cheap
//!   handle to a shared engine, so thousands of sessions can live on
//!   different threads over one group space — the serving shape behind
//!   [`crate::serve::ExplorationService`].
//!
//! The display is an `Arc<[GroupId]>` and feedback sits behind an `Arc`,
//! so committing a HISTORY step is two `Arc` clones. That does not make a
//! deep history cheap: the step just committed always shares the live
//! feedback vector, so the next click's copy-on-write deep-copies all of
//! it, and a history of depth d holds d full feedback vectors —
//! O(steps × feedback size) (ROADMAP item 9). The per-click scratch
//! buffers of the greedy optimizer live in the session and are reused
//! across clicks. The opening step is the engine's, not the session's:
//! with no feedback yet it depends only on the engine and the step
//! config, so the engine memoizes it (`Vexus::opening`) and an open
//! under the memoized config shares its display without running greedy.

use crate::config::EngineConfig;
use crate::engine::Vexus;
use crate::error::CoreError;
use crate::feedback::{ContextView, FeedbackVector};
use crate::greedy::{self, ScoredCandidate, SelectScratch, SelectionOutcome};
use std::ops::Deref;
use std::sync::Arc;
use vexus_data::{AttrId, UserData, UserId};
use vexus_index::GroupIndex;
use vexus_mining::features::Featurizer;
use vexus_mining::{GroupId, MemberSet};
use vexus_stats::StatsView;
use vexus_viz::color::{Color, Palette};
use vexus_viz::force::{ForceConfig, ForceLayout};
use vexus_viz::lda::Lda;
use vexus_viz::pca::Pca;

/// One entry of the HISTORY view. Snapshots are shared (`Arc`), so pushing
/// a step never deep-copies the display or the feedback vector; a restore
/// ([`Session::backtrack`]) is two reference-count bumps.
#[derive(Debug, Clone)]
pub struct HistoryStep {
    /// The group clicked to produce this step (`None` = opening step or
    /// backtrack landing).
    pub clicked: Option<GroupId>,
    /// The GroupViz display after the step.
    pub display: Arc<[GroupId]>,
    /// Feedback state after the step (snapshot, restorable). A full
    /// vector per step: the next click deep-copies the one it shares with
    /// the live session (ROADMAP item 9).
    pub feedback: Arc<FeedbackVector>,
}

/// The MEMO view: bookmarked groups and users — "her analysis goal".
#[derive(Debug, Clone, Default)]
pub struct Memo {
    groups: Vec<GroupId>,
    users: Vec<UserId>,
}

impl Memo {
    /// Bookmarked groups, insertion order.
    pub fn groups(&self) -> &[GroupId] {
        &self.groups
    }

    /// Bookmarked users, insertion order.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    fn add_group(&mut self, g: GroupId) {
        if !self.groups.contains(&g) {
            self.groups.push(g);
        }
    }

    fn add_user(&mut self, u: UserId) {
        if !self.users.contains(&u) {
            self.users.push(u);
        }
    }
}

/// One circle of the GroupViz rendering.
#[derive(Debug, Clone)]
pub struct Circle {
    /// The group behind the circle.
    pub group: GroupId,
    /// Center x.
    pub x: f64,
    /// Center y.
    pub y: f64,
    /// Radius (scaled from member count).
    pub radius: f64,
    /// Fill color (blend of the color attribute's shares).
    pub color: Color,
    /// Hover label (the group description).
    pub label: String,
}

/// An interactive exploration over a pre-processed group space, generic
/// over how the engine is held (a borrow, an `Arc`).
pub struct Session<E: Deref<Target = Vexus>> {
    engine: E,
    config: EngineConfig,
    feedback: Arc<FeedbackVector>,
    display: Arc<[GroupId]>,
    history: Vec<HistoryStep>,
    memo: Memo,
    last_outcome: Option<SelectionOutcome>,
    /// Steps so far whose greedy call hit the time budget.
    budget_exhausted_steps: usize,
    /// Reused greedy working memory of the clicks (re-initialised each
    /// click, never shrunk; the opening step is the engine's and does not
    /// touch it). It holds what the largest click needed: pool ×
    /// clicked-group coverage bits, member bit-rows for the groups that
    /// entered a selection only, and 1.5 bits per user id of the pool's
    /// window for the rank lookup — the bound [`SelectScratch`] states.
    scratch: SelectScratch,
    /// Reused candidate buffer for the neighbors → greedy handoff.
    candidates: Vec<ScoredCandidate>,
}

/// The borrowing session — what [`Vexus::session`] returns.
pub type ExplorationSession<'a> = Session<&'a Vexus>;

impl<E: Deref<Target = Vexus>> Session<E> {
    /// Open a session over any engine handle. Its first display is the
    /// engine's opening step under `config` (`Vexus::opening`): greedy
    /// over the whole group space against the full population, memoized
    /// per engine. Fails with [`CoreError::InvalidConfig`] on a step config
    /// no session can use.
    pub fn open_engine(engine: E, config: EngineConfig) -> Result<Self, CoreError> {
        config.check_step()?;
        if engine.groups().is_empty() {
            return Err(CoreError::EmptyGroupSpace);
        }
        let (display, outcome) = engine.opening(&config);
        let mut session = Self {
            engine,
            config,
            feedback: Arc::new(FeedbackVector::new()),
            display: Arc::clone(&display),
            history: Vec::new(),
            memo: Memo::default(),
            last_outcome: None,
            budget_exhausted_steps: 0,
            scratch: SelectScratch::new(),
            candidates: Vec::new(),
        };
        session.commit_step(None, display, outcome);
        Ok(session)
    }

    /// Install a selection as the new display and snapshot it into
    /// HISTORY. The history entry and the feedback snapshot are
    /// reference-count bumps.
    fn commit_step(
        &mut self,
        clicked: Option<GroupId>,
        display: Arc<[GroupId]>,
        outcome: SelectionOutcome,
    ) {
        self.display = display;
        self.budget_exhausted_steps += usize::from(outcome.budget_exhausted);
        self.last_outcome = Some(outcome);
        self.history.push(HistoryStep {
            clicked,
            display: Arc::clone(&self.display),
            feedback: Arc::clone(&self.feedback),
        });
    }

    /// Fill the reusable candidate buffer with the clicked group's index
    /// neighbors, read through the engine's shared cache.
    fn refresh_candidates(&mut self, g: GroupId) {
        let engine = &*self.engine;
        let neighbors = engine.cache.neighbors(
            engine.index(),
            engine.groups(),
            g,
            self.config.candidate_pool,
        );
        self.candidates.clear();
        self.candidates
            .extend(neighbors.iter().map(|&(id, sim)| (id, sim as f64)));
    }

    /// The current GroupViz display (P1: at most `k` groups).
    pub fn display(&self) -> &[GroupId] {
        &self.display
    }

    /// Click a displayed group: record positive feedback and navigate to
    /// the next k groups (its most similar neighbors, optimized for P2
    /// within the P3 budget).
    pub fn click(&mut self, g: GroupId) -> Result<&[GroupId], CoreError> {
        if !self.display.contains(&g) {
            return Err(CoreError::NotDisplayed(g.0));
        }
        if self.config.feedback_weight > 0.0 {
            let group = self.engine.groups().get(g);
            // Copy-on-write: the last history step still shares the
            // vector, so this clones all of it.
            Arc::make_mut(&mut self.feedback).reward_group(group);
        }
        self.refresh_candidates(g);
        let group = self.engine.groups().get(g);
        let outcome = greedy::select_k_with(
            &mut self.scratch,
            self.engine.groups(),
            &self.candidates,
            &group.members,
            &self.feedback,
            &self.config.select_params(),
        );
        self.commit_step(Some(g), Arc::from(outcome.selection.as_slice()), outcome);
        Ok(&self.display)
    }

    /// The HISTORY view.
    pub fn history(&self) -> &[HistoryStep] {
        &self.history
    }

    /// Backtrack to a previous step: restores its display and feedback and
    /// truncates the forward history (a new branch starts from there).
    pub fn backtrack(&mut self, step: usize) -> Result<&[GroupId], CoreError> {
        if step >= self.history.len() {
            return Err(CoreError::BadHistoryStep(step));
        }
        self.history.truncate(step + 1);
        let snapshot = &self.history[step];
        self.display = Arc::clone(&snapshot.display);
        self.feedback = Arc::clone(&snapshot.feedback);
        Ok(&self.display)
    }

    /// The CONTEXT view: current feedback bias, top-`n` per side.
    pub fn context(&self, n: usize) -> ContextView {
        self.feedback.context_view(n)
    }

    /// Unlearn a demographic value (delete it from CONTEXT) — e.g. the PC
    /// chair deleting "male" to re-balance results.
    pub fn unlearn_token(&mut self, token: vexus_data::TokenId) {
        Arc::make_mut(&mut self.feedback).unlearn_token(token);
    }

    /// Unlearn a user.
    pub fn unlearn_user(&mut self, user: UserId) {
        Arc::make_mut(&mut self.feedback).unlearn_user(user);
    }

    /// Bookmark a group in MEMO.
    pub fn memo_group(&mut self, g: GroupId) -> Result<(), CoreError> {
        if g.index() >= self.engine.groups().len() {
            return Err(CoreError::UnknownGroup(g.0));
        }
        self.memo.add_group(g);
        Ok(())
    }

    /// Bookmark a user in MEMO.
    pub fn memo_user(&mut self, u: UserId) {
        self.memo.add_user(u);
    }

    /// The MEMO view.
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// The STATS view over a group's members (coordinated histograms +
    /// brushable user table). Fails with [`CoreError::SchemaTooWide`] on a
    /// schema with more attributes than the view's histograms cover.
    pub fn stats_view(&self, g: GroupId) -> Result<StatsView<'_>, CoreError> {
        if g.index() >= self.engine.groups().len() {
            return Err(CoreError::UnknownGroup(g.0));
        }
        let members: Vec<UserId> = self
            .engine
            .groups()
            .get(g)
            .members
            .iter()
            .map(UserId::new)
            .collect();
        let data = self.engine.data();
        StatsView::new(data, members).ok_or(CoreError::SchemaTooWide(data.schema().len()))
    }

    /// The Focus view: a 2-D projection of a group's members, labeled (and
    /// LDA-supervised) by `label_attr`. Falls back to PCA when fewer than
    /// two label classes are present. Returns `(user, [x, y], class)`.
    pub fn focus_view(
        &self,
        g: GroupId,
        label_attr: AttrId,
    ) -> Result<Vec<(UserId, [f64; 2], u32)>, CoreError> {
        if g.index() >= self.engine.groups().len() {
            return Err(CoreError::UnknownGroup(g.0));
        }
        let data = self.engine.data();
        let members: Vec<UserId> = self
            .engine
            .groups()
            .get(g)
            .members
            .iter()
            .map(UserId::new)
            .collect();
        if members.is_empty() {
            return Ok(Vec::new());
        }
        let featurizer = Featurizer::new(data);
        let points = featurizer.features_of(data, &members);
        let missing_class = data.schema().cardinality(label_attr) as u32;
        let labels: Vec<u32> = members
            .iter()
            .map(|&u| {
                let v = data.value(u, label_attr);
                if v.is_missing() {
                    missing_class
                } else {
                    v.raw()
                }
            })
            .collect();
        let classes: std::collections::BTreeSet<u32> = labels.iter().copied().collect();
        let projected: Vec<Vec<f64>> = if classes.len() >= 2 && members.len() > classes.len() {
            let lda = Lda::fit(&points, &labels, 2);
            lda.project_all(&points)
        } else {
            let k = 2.min(featurizer.dim());
            let pca = Pca::fit(&points, k);
            pca.project_all(&points)
        };
        Ok(members
            .iter()
            .zip(projected)
            .zip(labels)
            .map(|((&u, p), l)| {
                let x = p.first().copied().unwrap_or(0.0);
                let y = p.get(1).copied().unwrap_or(0.0);
                (u, [x, y], l)
            })
            .collect())
    }

    /// Lay out the current display as GroupViz circles: force-directed
    /// positions, sizes from member counts, colors blended by `color_attr`
    /// shares, hover labels from descriptions.
    pub fn groupviz(&self, color_attr: AttrId) -> Vec<Circle> {
        if self.display.is_empty() {
            return Vec::new();
        }
        let groups = self.engine.groups();
        let data = self.engine.data();
        let max_size = self
            .display
            .iter()
            .map(|&g| groups.get(g).size())
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let radii: Vec<f64> = self
            .display
            .iter()
            .map(|&g| 18.0 + 42.0 * (groups.get(g).size() as f64 / max_size).sqrt())
            .collect();
        let mut layout = ForceLayout::new(&radii, ForceConfig::default());
        // Springs proportional to pairwise similarity.
        for i in 0..self.display.len() {
            for j in i + 1..self.display.len() {
                let sim = GroupIndex::similarity(groups, self.display[i], self.display[j]);
                if sim > 0.0 {
                    layout.link(i, j, sim);
                }
            }
        }
        layout.run(300);
        self.display
            .iter()
            .zip(&layout.nodes)
            .map(|(&g, node)| {
                let group = groups.get(g);
                // Color: blend of the color attribute's value shares.
                let mut shares: std::collections::HashMap<u32, f64> = Default::default();
                for u in group.members.iter() {
                    let v = data.value(UserId::new(u), color_attr);
                    if !v.is_missing() {
                        *shares.entry(v.raw()).or_insert(0.0) += 1.0;
                    }
                }
                let share_vec: Vec<(usize, f64)> =
                    shares.into_iter().map(|(c, w)| (c as usize, w)).collect();
                Circle {
                    group: g,
                    x: node.x,
                    y: node.y,
                    radius: node.radius,
                    color: Palette::blend(&share_vec),
                    label: group.label(self.engine.vocab(), data.schema()),
                }
            })
            .collect()
    }

    /// Member set of a group (used by simulated explorers and experiments).
    pub fn group_members(&self, g: GroupId) -> &MemberSet {
        &self.engine.groups().get(g).members
    }

    /// The underlying dataset.
    pub fn data(&self) -> &UserData {
        self.engine.data()
    }

    /// The engine handle the session explores over.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Human-readable description of a group (the hover text).
    pub fn describe(&self, g: GroupId) -> String {
        let groups = self.engine.groups();
        format!(
            "{} ({} users)",
            groups
                .get(g)
                .label(self.engine.vocab(), self.engine.data().schema()),
            groups.get(g).size()
        )
    }

    /// P2/P3 telemetry of the most recent greedy call.
    pub fn last_outcome(&self) -> Option<&SelectionOutcome> {
        self.last_outcome.as_ref()
    }

    /// How many steps of this session (the opening one included) returned
    /// the anytime answer because the greedy ran out of
    /// [`EngineConfig::time_budget`] — on a loaded machine a trajectory
    /// that differs from the seeded one is budget-bound, not wrong.
    pub fn budget_exhausted_steps(&self) -> usize {
        self.budget_exhausted_steps
    }

    /// The current feedback vector (read-only).
    pub fn feedback(&self) -> &FeedbackVector {
        &self.feedback
    }

    /// Export MEMO as CSV — the "Save" module of Fig. 1. One row per
    /// bookmarked group (kind=group) and per bookmarked user (kind=user).
    pub fn export_memo_csv(&self) -> String {
        let groups = self.engine.groups();
        let data = self.engine.data();
        let header: Vec<String> = ["kind", "id", "label", "size_or_activity"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut records = Vec::new();
        for &g in self.memo.groups() {
            records.push(vec![
                "group".to_string(),
                g.to_string(),
                groups.get(g).label(self.engine.vocab(), data.schema()),
                groups.get(g).size().to_string(),
            ]);
        }
        for &u in self.memo.users() {
            records.push(vec![
                "user".to_string(),
                data.user_name(u).to_string(),
                data.describe_user(u),
                data.user_activity(u).to_string(),
            ]);
        }
        vexus_data::csv::write(&header, &records, vexus_data::csv::CsvOptions::default())
    }

    /// Render the whole five-view state as text (for the CLI examples and
    /// the F2 experiment).
    pub fn render_text(&self) -> String {
        let data = self.engine.data();
        let mut out = String::new();
        out.push_str("== GROUPVIZ ==\n");
        for &g in self.display.iter() {
            out.push_str(&format!("  ({g}) {}\n", self.describe(g)));
        }
        out.push_str("== CONTEXT ==\n");
        let ctx = self.context(5);
        for (t, s) in &ctx.tokens {
            out.push_str(&format!(
                "  [{}] {s:.3}\n",
                self.engine.vocab().label(*t, data.schema())
            ));
        }
        for (u, s) in &ctx.users {
            out.push_str(&format!("  [{}] {s:.3}\n", data.user_name(*u)));
        }
        out.push_str("== HISTORY ==\n");
        for (i, step) in self.history.iter().enumerate() {
            match step.clicked {
                None => out.push_str(&format!("  {i}: (start)\n")),
                Some(g) => out.push_str(&format!("  {i}: clicked {g}\n")),
            }
        }
        out.push_str("== MEMO ==\n");
        for g in self.memo.groups() {
            out.push_str(&format!("  group {g}: {}\n", self.describe(*g)));
        }
        for u in self.memo.users() {
            out.push_str(&format!("  user {}\n", data.user_name(*u)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Vexus;
    use vexus_data::synthetic::{bookcrossing, BookCrossingConfig};

    fn engine() -> Vexus {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        Vexus::build(ds.data, EngineConfig::default()).expect("group space non-empty")
    }

    #[test]
    fn opening_step_shows_at_most_k_groups() {
        let vexus = engine();
        let session = vexus.session().unwrap();
        assert!(!session.display().is_empty());
        assert!(session.display().len() <= 5, "P1 violated");
        assert_eq!(session.history().len(), 1);
        assert!(session.history()[0].clicked.is_none());
    }

    #[test]
    fn click_navigates_and_learns() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let g = session.display()[0];
        let next = session.click(g).unwrap().to_vec();
        assert!(!next.is_empty());
        assert!(next.len() <= 5);
        assert_eq!(session.history().len(), 2);
        assert_eq!(session.history()[1].clicked, Some(g));
        // Feedback was recorded.
        assert!(!session.feedback().is_empty());
        let ctx = session.context(5);
        assert!(!ctx.users.is_empty() || !ctx.tokens.is_empty());
    }

    #[test]
    fn click_requires_displayed_group() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let bogus = GroupId::new(u32::MAX - 1);
        assert!(matches!(
            session.click(bogus),
            Err(CoreError::NotDisplayed(_))
        ));
    }

    #[test]
    fn backtrack_restores_display_and_feedback() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let initial = session.display().to_vec();
        let g = session.display()[0];
        session.click(g).unwrap();
        let g2 = session.display()[0];
        session.click(g2).unwrap();
        assert_eq!(session.history().len(), 3);
        session.backtrack(0).unwrap();
        assert_eq!(session.display(), initial.as_slice());
        assert!(
            session.feedback().is_empty(),
            "feedback restored to opening state"
        );
        assert_eq!(session.history().len(), 1);
        assert!(matches!(
            session.backtrack(9),
            Err(CoreError::BadHistoryStep(9))
        ));
    }

    /// Regression pin for the Arc-snapshot refactor: backtracking to a
    /// step and replaying the same clicks must reproduce byte-identical
    /// displays and feedback state at every step — exactly what the
    /// eagerly-cloning history gave.
    #[test]
    fn backtrack_then_replay_is_byte_identical() {
        let vexus = engine();
        // A budget the tiny workload never exhausts: every greedy call
        // runs to convergence, so the replay cannot diverge on a noisy
        // machine where the clock (not the optimum) decides.
        let config = EngineConfig::default().with_budget(std::time::Duration::from_secs(600));
        let mut session = vexus.session_with(config).unwrap();
        // Walk four clicks, recording the trace.
        let mut clicks = Vec::new();
        let mut displays = vec![session.display().to_vec()];
        let mut contexts = vec![session.context(usize::MAX)];
        for step in 0..4 {
            let g = session.display()[step % session.display().len()];
            clicks.push(g);
            session.click(g).unwrap();
            displays.push(session.display().to_vec());
            contexts.push(session.context(usize::MAX));
        }
        // Backtrack to the opening step and replay the identical clicks.
        session.backtrack(0).unwrap();
        assert_eq!(session.display(), displays[0].as_slice());
        assert_eq!(session.context(usize::MAX), contexts[0]);
        for (i, &g) in clicks.iter().enumerate() {
            session.click(g).unwrap();
            assert_eq!(session.display(), displays[i + 1].as_slice(), "step {i}");
            assert_eq!(session.context(usize::MAX), contexts[i + 1], "step {i}");
        }
        // Mid-history backtrack restores that exact snapshot too.
        session.backtrack(2).unwrap();
        assert_eq!(session.display(), displays[2].as_slice());
        assert_eq!(session.context(usize::MAX), contexts[2]);
    }

    /// The history is O(deltas): with feedback disabled no click mutates
    /// the vector, so every snapshot shares one allocation.
    #[test]
    fn history_snapshots_share_feedback_when_unchanged() {
        let vexus = engine();
        let mut session = vexus
            .session_with(EngineConfig::default().without_feedback())
            .unwrap();
        for _ in 0..3 {
            let g = session.display()[0];
            if session.click(g).is_err() || session.display().is_empty() {
                break;
            }
        }
        let history = session.history();
        assert!(history.len() >= 2);
        for step in &history[1..] {
            assert!(
                Arc::ptr_eq(&history[0].feedback, &step.feedback),
                "unchanged feedback must be shared, not cloned"
            );
        }
    }

    #[test]
    fn memo_bookmarks_dedupe() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let g = session.display()[0];
        session.memo_group(g).unwrap();
        session.memo_group(g).unwrap();
        session.memo_user(UserId::new(3));
        session.memo_user(UserId::new(3));
        assert_eq!(session.memo().groups().len(), 1);
        assert_eq!(session.memo().users().len(), 1);
        assert!(session.memo_group(GroupId::new(u32::MAX - 1)).is_err());
    }

    #[test]
    fn stats_view_over_group_members() {
        let vexus = engine();
        let session = vexus.session().unwrap();
        let g = session.display()[0];
        let view = session.stats_view(g).unwrap();
        assert_eq!(view.n_users(), vexus.groups().get(g).size());
        let gender_like = vexus.data().schema().attr("country").unwrap();
        let hist = view.histogram(gender_like);
        let total: u64 = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total as usize, view.n_users());
    }

    /// An engine over `n_attrs` categorical attributes with a fixed group
    /// space: six users, one group holding all of them.
    fn wide_engine(n_attrs: usize) -> Vexus {
        use vexus_mining::{Group, GroupSet, MemberSet};
        let mut schema = vexus_data::Schema::new();
        let attrs: Vec<_> = (0..n_attrs)
            .map(|a| schema.add_categorical(format!("a{a}")))
            .collect();
        let mut b = vexus_data::UserDataBuilder::new(schema);
        for u in 0..6 {
            let user = b.user(&format!("u{u}"));
            for &attr in &attrs {
                b.set_demo(user, attr, if u % 2 == 0 { "x" } else { "y" })
                    .unwrap();
            }
        }
        let data = b.build();
        let mut groups = GroupSet::new();
        groups.push(Group::new(vec![], MemberSet::universe(6)));
        let config = EngineConfig {
            min_group_size: 1,
            ..EngineConfig::default()
        };
        crate::engine::VexusBuilder::new(data)
            .config(config)
            .discovery(crate::engine::tests::FixedGroups(groups))
            .build()
            .unwrap()
    }

    #[test]
    fn stats_view_refuses_a_schema_wider_than_the_crossfilter() {
        // 31 attributes plus the activity dimension fill the crossfilter.
        let vexus = wide_engine(31);
        let session = vexus.session().unwrap();
        let view = session.stats_view(GroupId::new(0)).unwrap();
        assert_eq!(view.n_users(), 6);
        // One more is refused with a typed error, not a panic.
        let vexus = wide_engine(32);
        let session = vexus.session().unwrap();
        let err = session.stats_view(GroupId::new(0)).err().unwrap();
        assert_eq!(
            err.to_string(),
            "schema has 32 attributes, more than the STATS view shows"
        );
    }

    #[test]
    fn focus_view_projects_members_to_2d() {
        let vexus = engine();
        let session = vexus.session().unwrap();
        let g = session.display()[0];
        let attr = vexus.data().schema().attr("favorite_genre").unwrap();
        let points = session.focus_view(g, attr).unwrap();
        assert_eq!(points.len(), vexus.groups().get(g).size());
        assert!(points
            .iter()
            .all(|(_, p, _)| p.iter().all(|x| x.is_finite())));
    }

    #[test]
    fn groupviz_circles_do_not_overlap() {
        let vexus = engine();
        let session = vexus.session().unwrap();
        let attr = vexus.data().schema().attr("country").unwrap();
        let circles = session.groupviz(attr);
        assert_eq!(circles.len(), session.display().len());
        for i in 0..circles.len() {
            for j in i + 1..circles.len() {
                let d = ((circles[i].x - circles[j].x).powi(2)
                    + (circles[i].y - circles[j].y).powi(2))
                .sqrt();
                assert!(
                    d + 1.0 >= circles[i].radius + circles[j].radius,
                    "circles {i} and {j} overlap"
                );
            }
        }
        // Bigger groups get bigger circles.
        let sizes: Vec<usize> = circles
            .iter()
            .map(|c| vexus.groups().get(c.group).size())
            .collect();
        for i in 0..circles.len() {
            for j in 0..circles.len() {
                if sizes[i] > sizes[j] {
                    assert!(circles[i].radius >= circles[j].radius);
                }
            }
        }
    }

    #[test]
    fn unlearn_token_removes_bias() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let g = session.display()[0];
        session.click(g).unwrap();
        let ctx = session.context(10);
        if let Some(&(t, _)) = ctx.tokens.first() {
            session.unlearn_token(t);
            let after = session.context(10);
            assert!(after.tokens.iter().all(|(tok, _)| *tok != t));
        }
    }

    #[test]
    fn render_text_contains_all_views() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let g = session.display()[0];
        session.click(g).unwrap();
        session.memo_group(session.display()[0]).unwrap();
        let text = session.render_text();
        for view in ["GROUPVIZ", "CONTEXT", "HISTORY", "MEMO"] {
            assert!(text.contains(view), "missing {view}");
        }
        assert!(text.contains("clicked"));
    }

    #[test]
    fn memo_exports_as_csv() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let g = session.display()[0];
        session.memo_group(g).unwrap();
        session.memo_user(UserId::new(2));
        let csv_text = session.export_memo_csv();
        let table =
            vexus_data::csv::parse(&csv_text, vexus_data::csv::CsvOptions::default()).unwrap();
        assert_eq!(table.header[0], "kind");
        assert_eq!(table.records.len(), 2);
        assert_eq!(table.records[0][0], "group");
        assert_eq!(table.records[1][0], "user");
        assert_eq!(table.records[1][1], vexus.data().user_name(UserId::new(2)));
    }

    #[test]
    fn last_outcome_telemetry() {
        let vexus = engine();
        let mut session = vexus.session().unwrap();
        let outcome = session.last_outcome().unwrap();
        assert!(outcome.quality.coverage >= 0.0);
        let g = session.display()[0];
        session.click(g).unwrap();
        let outcome = session.last_outcome().unwrap();
        assert!(outcome.elapsed <= std::time::Duration::from_secs(2));
    }

    /// The owned shape: sessions over `Arc<Vexus>` behave identically to
    /// borrowing sessions over the same engine.
    #[test]
    fn owned_session_matches_borrowed() {
        let vexus = Arc::new(engine());
        // A budget that never binds: equality must not hinge on wall-clock
        // noise cutting two identical hill-climbs at different points.
        let cfg = EngineConfig::default().with_budget(std::time::Duration::from_secs(600));
        let mut owned =
            crate::engine::OwnedSession::open_with(Arc::clone(&vexus), cfg.clone()).unwrap();
        let mut borrowed = vexus.session_with(cfg).unwrap();
        assert_eq!(owned.display(), borrowed.display());
        for _ in 0..3 {
            let g = owned.display()[0];
            let a = owned.click(g).unwrap().to_vec();
            let b = borrowed.click(g).unwrap().to_vec();
            assert_eq!(a, b);
            if a.is_empty() {
                break;
            }
        }
        assert_eq!(
            owned.context(usize::MAX),
            borrowed.context(usize::MAX),
            "feedback must evolve identically"
        );
    }
}
