//! `explore-converged` and `explore-paper`: scripted sessions stepping on a
//! shared engine through `ExplorationService`.
//!
//! Both run the same engines and click scripts; only the session
//! configuration differs. `explore-converged` opens sessions with the `d5`
//! configuration (pool 96, a budget that never binds), so click time is
//! pure greedy/quality work and every trajectory is deterministic.
//! `explore-paper` opens them with `EngineConfig::paper()` (pool 256, 100 ms
//! budget), where a quarter to a third of the clicks exhaust the budget: a faster
//! greedy shows there as quality first, while the tail stays pinned (P3).

use crate::inputs;
use crate::report::{Checks, Report};
use crate::stats;
use crate::trace::{Tracer, ROOT};
use crate::Params;
use std::sync::Arc;
use std::time::Instant;
use vexus_core::engine::VexusBuilder;
use vexus_core::greedy::{self, SelectParams, SelectScratch};
use vexus_core::{quality, EngineConfig, ExplorationService, FeedbackVector, OwnedSession};
use vexus_core::{SessionId, Vexus};
use vexus_data::AttrId;
use vexus_mining::{GroupId, GroupSet, MemberSet};

/// Engines per run, each over its own dataset. Every session of an engine
/// opens on the same display, so the spread between seeds falls with the
/// number of engines, and a ×1 engine costs only ~0.1 s to build.
const UNITS: usize = 16;
/// Sessions opened on each engine (64 in all).
const SESSIONS_PER_UNIT: usize = 4;
/// Client threads stepping the sessions (= `nproc` on the reference box).
const WORKERS: usize = 2;
/// Timed clicks per session at the default run length.
const CLICKS_CONVERGED: usize = 12;
const CLICKS_PAPER: usize = 9;
/// Every session backtracks to history step 2 after this timed click.
const BACKTRACK_AFTER: usize = 5;
/// A view call (`groupviz` + `stats_view`) follows every this-many clicks.
const VIEW_EVERY: usize = 4;
/// Sessions per unit replayed single-threaded as the determinism check.
const FIXED_PER_UNIT: usize = 1;
/// Traced runs replay every this-many clicks through the layers.
const SHADOW_EVERY: usize = 4;
const FOCUS_EVERY: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Converged,
    Paper,
}

impl Mode {
    fn config(self) -> EngineConfig {
        match self {
            Mode::Converged => inputs::converged_config(),
            Mode::Paper => EngineConfig::paper(),
        }
    }
}

/// One unit: a dataset's engine and the service its sessions live in.
struct Unit {
    engine: Arc<Vexus>,
    svc: ExplorationService,
    color_attr: AttrId,
    /// Log of the engine's smallest and largest group size: the range click
    /// targets span.
    sizes: (f64, f64),
}

fn size_range(engine: &Vexus) -> (f64, f64) {
    let sizes = || engine.groups().iter().map(|(_, g)| g.size());
    let (min, max) = (sizes().min().unwrap_or(1), sizes().max().unwrap_or(1));
    ((min.max(1) as f64).ln(), (max.max(1) as f64).ln())
}

/// A scripted session and everything its worker tracks for it.
struct Sess {
    unit: usize,
    /// Index among all sessions of the run.
    global: usize,
    id: SessionId,
    display: Vec<GroupId>,
    /// History entries the session holds (1 after the opening step).
    history: usize,
    /// `script[0]` drives the warm-up click, `script[1 + step]` timed clicks
    /// (see [`inputs::click_script`]).
    script: Vec<f64>,
    /// Displays after every verb, kept for the determinism check.
    trajectory: Vec<Vec<GroupId>>,
}

/// The verb a script performs on a display.
enum Verb {
    Click(GroupId),
    /// Nothing left to click: restart from the opening display.
    Restart,
}

/// Click the displayed group whose size is closest (in ratio) to `target`,
/// a position in the engine's log-size range; ties go to the first slot.
fn plan(unit: &Unit, display: &[GroupId], target: f64) -> Verb {
    let wanted = unit.sizes.0 + target * (unit.sizes.1 - unit.sizes.0);
    let groups = unit.engine.groups();
    let distance = |g: &GroupId| ((groups.get(*g).size() as f64).ln() - wanted).abs();
    display
        .iter()
        .copied()
        .min_by(|a, b| distance(a).total_cmp(&distance(b)))
        .map_or(Verb::Restart, Verb::Click)
}

/// A click kept for the quality comparison after the stepping phase.
struct QualitySample {
    unit: usize,
    clicked: GroupId,
    /// The session's feedback before the click rewarded `clicked`.
    feedback: FeedbackVector,
    shown: Vec<GroupId>,
}

/// What one stepping worker measured.
#[derive(Default)]
struct WorkerOut {
    checks: Checks,
    click_ms: Vec<f64>,
    view_ms: Vec<f64>,
    groupviz_us: Vec<f64>,
    stats_view_us: Vec<f64>,
    backtrack_us: Vec<f64>,
    /// Wall clock of this worker's share of the stepping phase.
    wall_s: f64,
    quality: Vec<QualitySample>,
    shadow: Shadow,
    tracer: Option<Tracer>,
}

/// Counters of the traced run's shadow replays.
#[derive(Default)]
struct Shadow {
    overhead_us: Vec<f64>,
    replay_ratio: Vec<f64>,
    rounds: Vec<f64>,
    pool: Vec<f64>,
    exhausted: usize,
    fallback: usize,
    replays: usize,
}

impl WorkerOut {
    /// Fold another worker's samples into this one (the tracer and the wall
    /// clock stay with their worker).
    fn absorb(&mut self, other: WorkerOut) {
        self.checks.absorb(other.checks);
        self.click_ms.extend(other.click_ms);
        self.view_ms.extend(other.view_ms);
        self.groupviz_us.extend(other.groupviz_us);
        self.stats_view_us.extend(other.stats_view_us);
        self.backtrack_us.extend(other.backtrack_us);
        self.quality.extend(other.quality);
        self.shadow.overhead_us.extend(other.shadow.overhead_us);
        self.shadow.replay_ratio.extend(other.shadow.replay_ratio);
        self.shadow.rounds.extend(other.shadow.rounds);
        self.shadow.pool.extend(other.shadow.pool);
        self.shadow.exhausted += other.shadow.exhausted;
        self.shadow.fallback += other.shadow.fallback;
        self.shadow.replays += other.shadow.replays;
    }
}

fn select_params(cfg: &EngineConfig) -> SelectParams {
    SelectParams {
        k: cfg.k,
        budget: Some(cfg.time_budget),
        min_similarity: cfg.min_similarity,
        diversity_weight: cfg.diversity_weight,
        coverage_weight: cfg.coverage_weight,
        feedback_weight: cfg.feedback_weight,
    }
}

/// The P2 objective `greedy` maximises, for a finished selection.
fn objective(
    groups: &GroupSet,
    selection: &[GroupId],
    reference: &MemberSet,
    feedback: &FeedbackVector,
    params: &SelectParams,
) -> f64 {
    let q = quality::evaluate(groups, selection, reference);
    let affinity = if selection.is_empty() || params.feedback_weight <= 0.0 {
        0.0
    } else {
        selection
            .iter()
            .map(|&g| feedback.group_affinity(groups.get(g)))
            .sum::<f64>()
            / selection.len() as f64
    };
    q.score(params.diversity_weight, params.coverage_weight) + params.feedback_weight * affinity
}

/// Run `f(index, item)` over `items` on [`WORKERS`] threads, item `i` on
/// worker `i % WORKERS`, and return the per-worker results.
fn on_workers<T: Send, R: Send>(
    items: &mut [T],
    f: impl Fn(usize, Vec<(usize, &mut T)>) -> R + Sync,
) -> Vec<R> {
    let mut lanes: Vec<Vec<(usize, &mut T)>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (i, item) in items.iter_mut().enumerate() {
        lanes[i % WORKERS].push((i, item));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(w, lane)| {
                let f = &f;
                scope.spawn(move || f(w, lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

pub fn run(mode: Mode, p: &Params, mut tracer: Option<&mut Tracer>, report: &mut Report) {
    let cfg = mode.config();
    let clicks = inputs::scaled(
        match mode {
            Mode::Converged => CLICKS_CONVERGED,
            Mode::Paper => CLICKS_PAPER,
        },
        p.seconds,
        BACKTRACK_AFTER + 2,
    );
    let mut checks = Checks::default();

    // --- Set-up, once per unit: dataset, engine, sessions, warm-up clicks.
    let mut units: Vec<Unit> = Vec::with_capacity(UNITS);
    let mut sessions: Vec<Sess> = Vec::with_capacity(UNITS * SESSIONS_PER_UNIT);
    let mut open_ms: Vec<f64> = Vec::new();
    for u in 0..UNITS {
        let t0 = Instant::now();
        let data = inputs::dataset(p.seed, u, 1);
        let color_attr = data.schema().attr("country").expect("bookcrossing schema");
        let engine = VexusBuilder::new(data)
            .config(EngineConfig::paper())
            .build()
            .expect("non-empty group space")
            .shared();
        let unit = Unit {
            svc: ExplorationService::new(Arc::clone(&engine)),
            sizes: size_range(&engine),
            engine,
            color_attr,
        };
        let mut slots: Vec<Option<Sess>> = (0..SESSIONS_PER_UNIT).map(|_| None).collect();
        let opened = on_workers(&mut slots, |_, lane| {
            let mut checks = Checks::default();
            let mut open_ms = Vec::new();
            for (i, slot) in lane {
                let t = Instant::now();
                let opened = unit.svc.open_with(cfg.clone());
                open_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let Some((id, display)) = checks
                    .check(opened.is_ok(), || format!("open failed: {opened:?}"))
                    .then(|| opened.expect("checked"))
                else {
                    continue;
                };
                let mut s = Sess {
                    unit: u,
                    global: u * SESSIONS_PER_UNIT + i,
                    id,
                    trajectory: vec![display.clone()],
                    display,
                    history: 1,
                    script: inputs::click_script(p.seed, u, i, clicks + 1),
                };
                // Untimed warm-up click: fills the neighbor cache's first
                // entries and the session's scratch buffers.
                step_click(&unit, &mut s, 0, cfg.k, &mut checks);
                *slot = Some(s);
            }
            (checks, open_ms)
        });
        for (c, ms) in opened {
            checks.absorb(c);
            open_ms.extend(ms);
        }
        sessions.extend(slots.into_iter().flatten());
        report.setup_s.push(t0.elapsed().as_secs_f64());
        units.push(unit);
    }
    let cache_before: Vec<_> = units
        .iter()
        .map(|u| {
            u.engine
                .neighbor_cache()
                .map(|c| c.stats())
                .unwrap_or_default()
        })
        .collect();

    // --- The stepping phase: workers step their sessions round-robin.
    let forks: Vec<Option<Tracer>> = (0..WORKERS)
        .map(|_| tracer.as_deref().map(Tracer::fork))
        .collect();
    let forks = std::sync::Mutex::new(forks);
    let outs = on_workers(&mut sessions, |w, mut lane| {
        let mut out = WorkerOut {
            tracer: forks.lock().expect("fork table")[w].take(),
            ..WorkerOut::default()
        };
        let mut scratch = SelectScratch::new();
        let t_step = Instant::now();
        for step in 0..clicks {
            for (_, s) in lane.iter_mut() {
                timed_step(&units[s.unit], s, step, &cfg, &mut scratch, &mut out);
            }
        }
        out.wall_s = t_step.elapsed().as_secs_f64();
        out
    });

    // Throughput is summed over the workers, each over its own wall clock:
    // the closed loop's rate while both are busy, free of the idle tail the
    // faster worker would otherwise add to a shared wall clock.
    let mut clicks_per_s = 0.0;
    let mut all = WorkerOut::default();
    for mut out in outs {
        clicks_per_s += out.click_ms.len() as f64 / out.wall_s;
        if let (Some(main), Some(worker)) = (tracer.as_deref_mut(), out.tracer.take()) {
            main.absorb(worker);
        }
        all.absorb(out);
    }
    checks.absorb(std::mem::take(&mut all.checks));

    // --- Output checks outside the timed phase.
    if mode == Mode::Converged {
        check_fixed_sessions(&units, &sessions, &cfg, clicks, p.seed, &mut checks);
    }
    let ratios = quality_ratios(&units, &mut all.quality, &cfg);
    if mode == Mode::Converged {
        // With a budget that never binds the click *is* the unbounded run.
        checks.check(ratios.iter().all(|&r| r == 1.0), || {
            format!("converged clicks fall short of select_k_unbounded: {ratios:?}")
        });
    }

    // --- Metrics.
    let n_clicks = all.click_ms.len();
    let click = report.e2e_timing("click_p50_ms", &all.click_ms, 1.0);
    report.e2e(
        "click_p90_ms",
        stats::percentile(&all.click_ms, 0.90),
        n_clicks,
    );
    report.e2e("clicks_per_s", clicks_per_s, n_clicks);
    report.e2e_timing("session_open_ms", &open_ms, 1.0);
    report.e2e("quality_ratio", stats::mean(&ratios), ratios.len());
    report.e2e_timing("view_p50_ms", &all.view_ms, 1.0);
    report.checks = checks;
    report.sizes = format!(
        "x1 dataset, {UNITS} engines x {SESSIONS_PER_UNIT} sessions, pool {} budget {:?}, \
         {WORKERS} workers; per session 1 warm-up + {clicks} timed clicks, 1 backtrack, a view \
         every {VIEW_EVERY} clicks; {} quality samples; {} groups",
        cfg.candidate_pool,
        cfg.time_budget,
        ratios.len(),
        units.iter().map(|u| u.engine.groups().len()).sum::<usize>(),
    );

    if let Some(tr) = tracer {
        report.layer("core.serve_click_us", click.p50 * 1e3, n_clicks);
        report.layer_median(
            "core.feedback_reward_us",
            &tr.durations("core.feedback_reward"),
            1.0,
        );
        report.layer_median(
            "core.greedy_select_us",
            &tr.durations("core.greedy_select"),
            1.0,
        );
        report.layer_median(
            "core.quality_evaluate_us",
            &tr.durations("core.quality_evaluate"),
            1.0,
        );
        let sh = &all.shadow;
        let n = sh.replays.max(1) as f64;
        report.layer(
            "core.greedy_rounds_mean",
            stats::mean(&sh.rounds),
            sh.replays,
        );
        report.layer("core.greedy_pool_mean", stats::mean(&sh.pool), sh.replays);
        report.layer(
            "core.greedy_exhausted_share",
            sh.exhausted as f64 / n,
            sh.replays,
        );
        report.layer_median("core.serve_overhead_us", &sh.overhead_us, 1.0);
        report.layer_median("core.click_replay_ratio", &sh.replay_ratio, 1.0);
        report.layer_median(
            "index.cache_neighbors_us",
            &tr.durations("index.cache_neighbors"),
            1.0,
        );
        report.layer_median("index.neighbors_us", &tr.durations("index.neighbors"), 1.0);
        let (mut hits, mut misses) = (0u64, 0u64);
        for (u, before) in units.iter().zip(&cache_before) {
            let after = u
                .engine
                .neighbor_cache()
                .map(|c| c.stats())
                .unwrap_or_default();
            hits += after.hits - before.hits;
            misses += after.misses - before.misses;
        }
        let lookups = (hits + misses).max(1);
        report.layer(
            "index.cache_hit_rate",
            hits as f64 / lookups as f64,
            lookups as usize,
        );
        report.layer("index.fallback_share", sh.fallback as f64 / n, sh.replays);
        report.layer_median("core.session_open_ms", &open_ms, 1.0);
        report.layer_median("core.backtrack_us", &all.backtrack_us, 1.0);
        report.layer_median("viz.groupviz_us", &all.groupviz_us, 1.0);
        report.layer_median("stats.stats_view_us", &all.stats_view_us, 1.0);
        report.layer_median("viz.focus_view_ms", &tr.durations("viz.focus_view"), 1e-3);
    }
}

/// Perform the scripted click for `script[slot]` (or the restart it falls
/// back to), count it, and advance the session's local state. Returns the
/// clicked group and when the click started and ended.
fn step_click(
    unit: &Unit,
    s: &mut Sess,
    slot: usize,
    k: usize,
    checks: &mut Checks,
) -> Option<(GroupId, Instant, Instant)> {
    let svc = &unit.svc;
    match plan(unit, &s.display, s.script[slot]) {
        Verb::Click(g) => {
            let t0 = Instant::now();
            let shown = svc.click(s.id, g);
            let t1 = Instant::now();
            let ok = matches!(&shown, Ok(d) if d.len() <= k);
            checks.check(ok, || {
                format!("session {} click {g:?}: {shown:?}", s.global)
            });
            if let Ok(d) = shown {
                s.display = d;
                s.history += 1;
                s.trajectory.push(s.display.clone());
            }
            Some((g, t0, t1))
        }
        Verb::Restart => {
            backtrack(svc, s, 0, checks);
            None
        }
    }
}

fn backtrack(svc: &ExplorationService, s: &mut Sess, to: usize, checks: &mut Checks) {
    let shown = svc.backtrack(s.id, to);
    checks.check(shown.is_ok(), || {
        format!("session {} backtrack {to}: {shown:?}", s.global)
    });
    if let Ok(d) = shown {
        s.display = d;
        s.history = to + 1;
        s.trajectory.push(s.display.clone());
    }
}

/// One timed step of one session: the click, then whatever the script and
/// the sampling schedule attach to it.
fn timed_step(
    unit: &Unit,
    s: &mut Sess,
    step: usize,
    cfg: &EngineConfig,
    scratch: &mut SelectScratch,
    out: &mut WorkerOut,
) {
    let svc = &unit.svc;
    let request = (s.global * 10_000 + step) as u64;
    let quality_sample = step == (s.global * 5 + 3) % (BACKTRACK_AFTER + 2);
    let shadow = out.tracer.is_some() && (s.global + step).is_multiple_of(SHADOW_EVERY);
    let mut before = (quality_sample || shadow)
        .then(|| svc.with_session(s.id, |sess| sess.feedback().clone()).ok())
        .flatten();

    let Some((clicked, t0, t1)) = step_click(unit, s, 1 + step, cfg.k, &mut out.checks) else {
        return;
    };
    let click_us = t1.duration_since(t0).as_secs_f64() * 1e6;
    out.click_ms.push(click_us / 1e3);

    // The quality sample below needs the feedback too when both fall on one click.
    let replayed = if quality_sample {
        before.clone()
    } else {
        before.take()
    };
    if let (true, Some(tr), Some(fb)) = (shadow, out.tracer.as_mut(), replayed) {
        tr.record("core.serve_click", request, ROOT, t0, t1);
        shadow_click(
            tr,
            request,
            unit,
            cfg,
            clicked,
            fb,
            click_us,
            scratch,
            &mut out.shadow,
        );
        if (s.global + step).is_multiple_of(FOCUS_EVERY) {
            if let Some(&g) = s.display.first() {
                let (view, _) = tr.time("viz.focus_view", request, ROOT, || {
                    svc.with_session(s.id, |sess| sess.focus_view(g, unit.color_attr))
                });
                out.checks
                    .check(matches!(view, Ok(Ok(_))), || "focus_view failed".into());
            }
        }
    }
    if let (true, Some(feedback)) = (quality_sample, before) {
        out.quality.push(QualitySample {
            unit: s.unit,
            clicked,
            feedback,
            shown: s.display.clone(),
        });
    }

    if step == BACKTRACK_AFTER {
        let to = 2.min(s.history - 1);
        let t = Instant::now();
        backtrack(svc, s, to, &mut out.checks);
        out.backtrack_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    if (step + 1).is_multiple_of(VIEW_EVERY) {
        if let Some(&g) = s.display.first() {
            let t = Instant::now();
            let view = svc.with_session(s.id, |sess| {
                let t0 = Instant::now();
                let circles = sess.groupviz(unit.color_attr).len();
                let t1 = Instant::now();
                let users = sess.stats_view(g).map(|v| v.n_users());
                (circles, users, t1 - t0, t1.elapsed())
            });
            out.view_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let members = unit.engine.groups().get(g).size();
            let ok =
                matches!(&view, Ok((c, Ok(n), _, _)) if *c == s.display.len() && *n == members);
            out.checks
                .check(ok, || format!("session {} view is off", s.global));
            if let Ok((_, _, viz, st)) = view {
                out.groupviz_us.push(viz.as_secs_f64() * 1e6);
                out.stats_view_us.push(st.as_secs_f64() * 1e6);
            }
        }
    }
}

/// Replay one click through the layers' public functions, as
/// `Session::click` composes them, recording a span per call.
#[allow(clippy::too_many_arguments)]
fn shadow_click(
    tr: &mut Tracer,
    request: u64,
    unit: &Unit,
    cfg: &EngineConfig,
    clicked: GroupId,
    mut feedback: FeedbackVector,
    click_us: f64,
    scratch: &mut SelectScratch,
    acc: &mut Shadow,
) {
    let engine = &unit.engine;
    let (groups, index) = (engine.groups(), engine.index());
    let group = groups.get(clicked);
    let params = select_params(cfg);
    let pool = cfg.candidate_pool;

    let root = tr.open("core.click_replay", request, ROOT);
    tr.time("core.feedback_reward", request, root, || {
        feedback.reward_group(group)
    });
    let candidates: Vec<(GroupId, f64)> = match engine.neighbor_cache() {
        Some(cache) => tr
            .time("index.cache_neighbors", request, root, || {
                cache.neighbors(index, groups, clicked, pool)
            })
            .0
            .iter()
            .map(|&(id, sim)| (id, sim as f64))
            .collect(),
        None => index
            .neighbors(groups, clicked, pool)
            .into_iter()
            .map(|(id, sim)| (id, sim as f64))
            .collect(),
    };
    let (outcome, _) = tr.time("core.greedy_select", request, root, || {
        greedy::select_k_with(
            scratch,
            groups,
            &candidates,
            &group.members,
            &feedback,
            &params,
        )
    });
    let replay_us = tr.close(root);

    // Outside the replayed click: what the uncached fetch and one objective
    // evaluation (the unit of greedy work) cost on the same inputs.
    tr.time("index.neighbors", request, ROOT, || {
        std::hint::black_box(index.neighbors(groups, clicked, pool))
    });
    let mut mask = std::collections::HashSet::new();
    tr.time("core.quality_evaluate", request, ROOT, || {
        std::hint::black_box(quality::evaluate_with(
            groups,
            &outcome.selection,
            &group.members,
            &mut mask,
        ))
    });

    acc.replays += 1;
    acc.overhead_us.push(click_us - replay_us);
    acc.replay_ratio.push(replay_us / click_us.max(1e-9));
    acc.rounds.push(outcome.rounds as f64);
    acc.pool.push(candidates.len() as f64);
    acc.exhausted += outcome.budget_exhausted as usize;
    acc.fallback += index.needs_fallback(clicked, pool) as usize;
}

/// `explore-converged`'s determinism check: the first sessions of every
/// unit must equal a single-threaded `OwnedSession` replay verb for verb.
fn check_fixed_sessions(
    units: &[Unit],
    sessions: &[Sess],
    cfg: &EngineConfig,
    clicks: usize,
    seed: u64,
    checks: &mut Checks,
) {
    let mut fixed: Vec<&Sess> = sessions
        .iter()
        .filter(|s| s.global % SESSIONS_PER_UNIT < FIXED_PER_UNIT)
        .collect();
    let results = on_workers(&mut fixed, |_, lane| {
        let mut checks = Checks::default();
        for (_, s) in lane {
            let index = s.global % SESSIONS_PER_UNIT;
            let script = inputs::click_script(seed, s.unit, index, clicks + 1);
            let replayed = replay(&units[s.unit], cfg, &script, clicks);
            checks.check(replayed.as_ref() == Some(&s.trajectory), || {
                format!(
                    "session {} diverged from its single-threaded replay",
                    s.global
                )
            });
        }
        checks
    });
    for c in results {
        checks.absorb(c);
    }
}

/// The script of one session on a plain owned session: no service, no
/// sibling sessions, no worker threads.
fn replay(
    unit: &Unit,
    cfg: &EngineConfig,
    script: &[f64],
    clicks: usize,
) -> Option<Vec<Vec<GroupId>>> {
    let verb = |s: &mut OwnedSession, target: f64| -> Option<Vec<GroupId>> {
        Some(match plan(unit, s.display(), target) {
            Verb::Click(g) => s.click(g).ok()?.to_vec(),
            Verb::Restart => s.backtrack(0).ok()?.to_vec(),
        })
    };
    let mut s = OwnedSession::open_with(Arc::clone(&unit.engine), cfg.clone()).ok()?;
    let mut trajectory = vec![s.display().to_vec()];
    trajectory.push(verb(&mut s, script[0])?);
    for step in 0..clicks {
        trajectory.push(verb(&mut s, script[1 + step])?);
        if step == BACKTRACK_AFTER {
            let to = 2.min(s.history().len() - 1);
            trajectory.push(s.backtrack(to).ok()?.to_vec());
        }
    }
    Some(trajectory)
}

/// For every sampled click: the objective the click reached over the
/// objective `select_k_unbounded` reaches from the same candidates,
/// reference and feedback.
fn quality_ratios(units: &[Unit], samples: &mut [QualitySample], cfg: &EngineConfig) -> Vec<f64> {
    let params = select_params(cfg);
    on_workers(samples, |_, lane| {
        lane.into_iter()
            .map(|(_, s)| {
                let engine = &units[s.unit].engine;
                let groups = engine.groups();
                let group = groups.get(s.clicked);
                s.feedback.reward_group(group);
                let candidates: Vec<(GroupId, f64)> = engine
                    .index()
                    .neighbors(groups, s.clicked, cfg.candidate_pool)
                    .into_iter()
                    .map(|(id, sim)| (id, sim as f64))
                    .collect();
                let best = greedy::select_k_unbounded(
                    groups,
                    &candidates,
                    &group.members,
                    &s.feedback,
                    &params,
                );
                let reached = objective(groups, &s.shown, &group.members, &s.feedback, &params);
                let attainable = objective(
                    groups,
                    &best.selection,
                    &group.members,
                    &s.feedback,
                    &params,
                );
                if attainable > 0.0 {
                    reached / attainable
                } else {
                    1.0
                }
            })
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .collect()
}
