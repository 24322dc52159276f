//! Seeded synthetic datasets standing in for the paper's corpora.
//!
//! The paper evaluates on two private-ish datasets: **DB-AUTHORS** (a crawl
//! of database researchers; the published download link is dead) and
//! **BOOKCROSSING** (public, but not shippable inside this offline repo).
//! We substitute seeded generators that reproduce the *shape* the
//! exploration stack depends on:
//!
//! * the same attribute schemas and cardinalities,
//! * Zipf-skewed activity and popularity,
//! * latent **communities** that induce the attribute co-occurrence
//!   structure group discovery feeds on (without correlations there would
//!   be no interesting groups to explore), and
//! * ground-truth labels (`latent`) that evaluation code may use to score
//!   projections and simulated explorers — the VEXUS engine itself never
//!   sees them.
//!
//! All generators are deterministic in their seed.

use crate::dataset::{UserData, UserDataBuilder};
use crate::schema::Schema;
use crate::zipf::{weighted_choice, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset plus evaluation-only ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The user data as the VEXUS pipeline sees it.
    pub data: UserData,
    /// Latent community per user (ground truth for evaluation only).
    pub latent: Vec<u32>,
    /// Name of the generator, for reports.
    pub name: &'static str,
}

// ---------------------------------------------------------------------------
// BOOKCROSSING
// ---------------------------------------------------------------------------

/// Configuration for the BookCrossing-like generator.
///
/// Defaults are a laptop-scale slice (20k users / 15k books / 120k ratings)
/// of the paper's 278,858-user / 271,379-book / ~1.05M-rating snapshot; the
/// full scale is reachable by raising the fields.
#[derive(Debug, Clone)]
pub struct BookCrossingConfig {
    /// Number of users.
    pub n_users: usize,
    /// Number of books.
    pub n_books: usize,
    /// Number of ratings.
    pub n_ratings: usize,
    /// Number of latent reader communities.
    pub n_communities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BookCrossingConfig {
    fn default() -> Self {
        Self {
            n_users: 20_000,
            n_books: 15_000,
            n_ratings: 120_000,
            n_communities: 8,
            seed: 42,
        }
    }
}

impl BookCrossingConfig {
    /// A small configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            n_users: 300,
            n_books: 200,
            n_ratings: 2_000,
            n_communities: 4,
            seed: 7,
        }
    }
}

const GENRES: &[&str] = &[
    "fiction",
    "romance",
    "thriller",
    "mystery",
    "scifi",
    "fantasy",
    "history",
    "biography",
    "selfhelp",
    "children",
    "poetry",
    "cooking",
];

const COUNTRIES: &[&str] = &[
    "usa",
    "canada",
    "uk",
    "germany",
    "france",
    "spain",
    "italy",
    "brazil",
    "australia",
    "netherlands",
    "portugal",
    "india",
    "japan",
    "mexico",
    "argentina",
    "sweden",
];

const OCCUPATIONS: &[&str] = &[
    "student",
    "engineer",
    "teacher",
    "nurse",
    "manager",
    "artist",
    "retired",
    "librarian",
    "lawyer",
    "scientist",
];

/// Generate a BookCrossing-like rating dataset.
///
/// Schema: demographics `age` (5 bins), `country`, `occupation`, plus the
/// action-derived attributes `favorite_genre` and `activity`. Books carry a
/// genre category; ratings run 1–10 and are "mostly high" as the paper notes
/// of the real data (readers rate what they like).
pub fn bookcrossing(cfg: &BookCrossingConfig) -> SyntheticDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut schema = Schema::new();
    let age = schema.add_numeric_labeled(
        "age",
        &[18.0, 30.0, 45.0, 65.0],
        &["teen", "young", "adult", "middle-age", "senior"],
    );
    let country = schema.add_categorical("country");
    let occupation = schema.add_categorical("occupation");
    let favorite = schema.add_categorical("favorite_genre");
    let activity = schema.add_categorical("activity");

    let mut b = UserDataBuilder::new(schema);

    // Communities: each has a genre preference profile, a country tilt and
    // an age center. They are what makes groups like "young readers in
    // Germany who like fantasy" discoverable.
    let n_comm = cfg.n_communities.max(1);
    struct Community {
        genre_weights: Vec<f64>,
        country_weights: Vec<f64>,
        age_mean: f64,
        age_sd: f64,
    }
    let communities: Vec<Community> = (0..n_comm)
        .map(|c| {
            let mut genre_weights = vec![1.0; GENRES.len()];
            // Two signature genres per community get a strong boost.
            genre_weights[c % GENRES.len()] = 12.0;
            genre_weights[(c * 5 + 3) % GENRES.len()] = 6.0;
            let mut country_weights = vec![1.0; COUNTRIES.len()];
            country_weights[c % COUNTRIES.len()] = 8.0;
            country_weights[(c * 3 + 1) % COUNTRIES.len()] = 4.0;
            Community {
                genre_weights,
                country_weights,
                age_mean: 22.0 + 7.0 * (c as f64),
                age_sd: 6.0,
            }
        })
        .collect();
    let comm_pick = Zipf::new(n_comm, 0.5);

    // Books: genre zipf-skewed toward popular genres, popularity zipf.
    let genre_pop = Zipf::new(GENRES.len(), 0.7);
    let mut book_genre = Vec::with_capacity(cfg.n_books);
    for i in 0..cfg.n_books {
        let g = genre_pop.sample(&mut rng);
        book_genre.push(g);
        b.item(&format!("book-{i:06}"), Some(GENRES[g]));
    }
    // Per-genre book lists for preference-driven rating.
    let mut books_of_genre: Vec<Vec<u32>> = vec![Vec::new(); GENRES.len()];
    for (i, &g) in book_genre.iter().enumerate() {
        books_of_genre[g].push(i as u32);
    }
    let book_pop = Zipf::new(cfg.n_books.max(1), 0.9);

    // Users.
    let mut latent = Vec::with_capacity(cfg.n_users);
    let mut user_comm = Vec::with_capacity(cfg.n_users);
    for u in 0..cfg.n_users {
        let c = comm_pick.sample(&mut rng);
        latent.push(c as u32);
        user_comm.push(c);
        let comm = &communities[c];
        let user = b.user(&format!("user-{u:06}"));
        // Box-Muller normal age sample.
        let (r1, r2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
        let normal = (-2.0 * r1.ln()).sqrt() * (std::f64::consts::TAU * r2).cos();
        let age_val = (comm.age_mean + comm.age_sd * normal).clamp(12.0, 90.0);
        b.set_demo_numeric(user, age, age_val);
        let ctry = weighted_choice(&mut rng, &comm.country_weights);
        b.set_demo(user, country, COUNTRIES[ctry])
            .expect("country interns");
        let occ = weighted_choice(
            &mut rng,
            &[3.0, 2.0, 2.0, 1.5, 1.5, 1.0, 1.5, 0.7, 0.8, 1.0],
        );
        b.set_demo(user, occupation, OCCUPATIONS[occ])
            .expect("occupation interns");
    }

    // Ratings: rater drawn Zipf (few heavy readers), book drawn from the
    // rater's community genre profile 70% of the time, global popularity
    // otherwise. Scores 1-10, high for in-preference books.
    let rater_pick = Zipf::new(cfg.n_users.max(1), 0.8);
    for _ in 0..cfg.n_ratings {
        let u = rater_pick.sample(&mut rng);
        let comm = &communities[user_comm[u]];
        let book = if rng.gen::<f64>() < 0.7 {
            let g = weighted_choice(&mut rng, &comm.genre_weights);
            let pool = &books_of_genre[g];
            if pool.is_empty() {
                book_pop.sample(&mut rng) as u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        } else {
            book_pop.sample(&mut rng) as u32
        };
        let preferred = comm.genre_weights[book_genre[book as usize]] > 1.0;
        let score = if preferred {
            *[7.0, 8.0, 8.0, 9.0, 9.0, 10.0].select(&mut rng)
        } else {
            *[2.0, 4.0, 5.0, 6.0, 7.0, 8.0].select(&mut rng)
        };
        let user = b.find_user(&format!("user-{u:06}")).expect("user exists");
        let item = b.item(&format!("book-{book:06}"), None);
        b.action(user, item, score);
    }

    // Derived attributes: favorite genre (modal rated genre) and activity.
    let genre_names: Vec<&str> = GENRES.to_vec();
    let book_genre_copy = book_genre.clone();
    b.derive_attribute(favorite, move |_, acts| {
        if acts.is_empty() {
            return String::new();
        }
        let mut counts = vec![0usize; genre_names.len()];
        for a in acts {
            counts[book_genre_copy[a.item.index()]] += 1;
        }
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .expect("non-empty counts");
        genre_names[best].to_string()
    })
    .expect("derive favorite_genre");
    b.derive_attribute(activity, |_, acts| {
        match acts.len() {
            0 => "silent",
            1..=3 => "casual",
            4..=15 => "regular",
            _ => "avid",
        }
        .to_string()
    })
    .expect("derive activity");

    SyntheticDataset {
        data: b.build(),
        latent,
        name: "bookcrossing",
    }
}

// ---------------------------------------------------------------------------
// DB-AUTHORS
// ---------------------------------------------------------------------------

/// Configuration for the DB-AUTHORS-like generator.
#[derive(Debug, Clone)]
pub struct DbAuthorsConfig {
    /// Number of researchers.
    pub n_authors: usize,
    /// Number of publication actions (author, paper-at-venue).
    pub n_publications: usize,
    /// Number of latent research communities.
    pub n_communities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbAuthorsConfig {
    fn default() -> Self {
        Self {
            n_authors: 8_000,
            n_publications: 60_000,
            n_communities: 6,
            seed: 42,
        }
    }
}

impl DbAuthorsConfig {
    /// A small configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            n_authors: 250,
            n_publications: 1_500,
            n_communities: 4,
            seed: 7,
        }
    }
}

/// Research topics in the DB-AUTHORS universe.
pub const TOPICS: &[&str] = &[
    "data management",
    "web search",
    "data mining",
    "machine learning",
    "information retrieval",
    "databases theory",
    "visualization",
    "crowdsourcing",
];

/// Publication venues in the DB-AUTHORS universe.
pub const VENUES: &[&str] = &[
    "sigmod", "vldb", "cikm", "icde", "kdd", "sigir", "edbt", "www", "pkdd", "dsaa",
];

const REGIONS: &[&str] = &[
    "north-america",
    "europe",
    "south-america",
    "asia",
    "oceania",
    "africa",
];

/// Generate a DB-AUTHORS-like researcher dataset.
///
/// Schema: `gender` (the population is ~64 % male, matching the paper's
/// "62 % of this group is male" drill-down example), `seniority` (years
/// active, 4 levels), `region`, `topic`, `main_venue`, and the derived
/// `publication_rate` ("inactive" … "extremely active"). Actions are
/// publications: `[author, paper, year_weight]`, papers carry their venue as
/// category.
pub fn dbauthors(cfg: &DbAuthorsConfig) -> SyntheticDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut schema = Schema::new();
    let gender = schema.add_categorical("gender");
    let seniority = schema.add_numeric_labeled(
        "seniority",
        &[5.0, 12.0, 22.0],
        &["junior", "mid-career", "senior", "very senior"],
    );
    let region = schema.add_categorical("region");
    let topic = schema.add_categorical("topic");
    let main_venue = schema.add_categorical("main_venue");
    let pub_rate = schema.add_categorical("publication_rate");

    let mut b = UserDataBuilder::new(schema);

    let n_comm = cfg.n_communities.max(1);
    struct Community {
        topic_weights: Vec<f64>,
        venue_weights: Vec<f64>,
        region_weights: Vec<f64>,
    }
    let communities: Vec<Community> = (0..n_comm)
        .map(|c| {
            let mut topic_weights = vec![0.6; TOPICS.len()];
            topic_weights[c % TOPICS.len()] = 10.0;
            topic_weights[(c * 3 + 2) % TOPICS.len()] = 4.0;
            let mut venue_weights = vec![0.8; VENUES.len()];
            venue_weights[c % VENUES.len()] = 9.0;
            venue_weights[(c * 2 + 1) % VENUES.len()] = 5.0;
            let mut region_weights = vec![1.0; REGIONS.len()];
            region_weights[c % REGIONS.len()] = 6.0;
            Community {
                topic_weights,
                venue_weights,
                region_weights,
            }
        })
        .collect();
    let comm_pick = Zipf::new(n_comm, 0.4);

    let mut latent = Vec::with_capacity(cfg.n_authors);
    let mut author_comm = Vec::with_capacity(cfg.n_authors);
    let mut author_years = Vec::with_capacity(cfg.n_authors);
    for a in 0..cfg.n_authors {
        let c = comm_pick.sample(&mut rng);
        latent.push(c as u32);
        author_comm.push(c);
        let comm = &communities[c];
        let author = b.user(&format!("author-{a:05}"));
        // ~64% male population.
        let g = if rng.gen::<f64>() < 0.64 {
            "male"
        } else {
            "female"
        };
        b.set_demo(author, gender, g).expect("gender interns");
        // Years active: exponential-ish, most juniors.
        let years = (-12.0 * (1.0 - rng.gen::<f64>()).ln()).clamp(1.0, 45.0);
        author_years.push(years);
        b.set_demo_numeric(author, seniority, years);
        let r = weighted_choice(&mut rng, &comm.region_weights);
        b.set_demo(author, region, REGIONS[r])
            .expect("region interns");
        let t = weighted_choice(&mut rng, &comm.topic_weights);
        b.set_demo(author, topic, TOPICS[t]).expect("topic interns");
        let v = weighted_choice(&mut rng, &comm.venue_weights);
        b.set_demo(author, main_venue, VENUES[v])
            .expect("venue interns");
    }

    // Publications: productivity grows with seniority (a "very senior
    // researcher with a very high number of publications" exists, like the
    // paper's Elke Rundensteiner example with 325 papers over 26 years).
    // Author picked proportional to years * zipf-ish noise.
    let weights: Vec<f64> = author_years
        .iter()
        .map(|&y| y * (1.0 + 4.0 * rng.gen::<f64>().powi(3)))
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut cum = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_w;
        cum.push(acc);
    }
    if let Some(last) = cum.last_mut() {
        *last = 1.0;
    }
    for paper_counter in 0..cfg.n_publications {
        let u: f64 = rng.gen();
        let a = cum.partition_point(|&c| c < u).min(cfg.n_authors - 1);
        let comm = &communities[author_comm[a]];
        let v = weighted_choice(&mut rng, &comm.venue_weights);
        let paper = b.item(&format!("paper-{paper_counter:06}"), Some(VENUES[v]));
        let author = b
            .find_user(&format!("author-{a:05}"))
            .expect("author exists");
        b.action(author, paper, 1.0);
    }

    b.derive_attribute(pub_rate, |_, acts| {
        match acts.len() {
            0 => "inactive",
            1..=4 => "occasional",
            5..=15 => "active",
            16..=40 => "very active",
            _ => "extremely active",
        }
        .to_string()
    })
    .expect("derive publication_rate");

    SyntheticDataset {
        data: b.build(),
        latent,
        name: "dbauthors",
    }
}

// ---------------------------------------------------------------------------
// GROCERY (hypothesis-validation workload)
// ---------------------------------------------------------------------------

/// Configuration for the grocery-receipts generator.
#[derive(Debug, Clone)]
pub struct GroceryConfig {
    /// Number of shoppers.
    pub n_users: usize,
    /// Number of purchase actions.
    pub n_purchases: usize,
    /// Strength of the planted "young professionals buy organic" effect,
    /// as the organic-purchase probability for that segment (baseline 0.15).
    pub organic_affinity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GroceryConfig {
    fn default() -> Self {
        Self {
            n_users: 5_000,
            n_purchases: 50_000,
            organic_affinity: 0.45,
            seed: 42,
        }
    }
}

const PRODUCTS: &[(&str, bool)] = &[
    ("milk", false),
    ("organic-milk", true),
    ("bread", false),
    ("organic-bread", true),
    ("beer", false),
    ("kombucha", true),
    ("chips", false),
    ("organic-kale", true),
    ("soda", false),
    ("organic-quinoa", true),
    ("coffee", false),
    ("organic-coffee", true),
    ("frozen-pizza", false),
    ("organic-tofu", true),
    ("candy", false),
    ("organic-granola", true),
];

/// Generate a grocery dataset with a planted "young professionals are more
/// inclined to buying organic food" effect (the paper's example hypothesis
/// from \[12\]).
pub fn grocery(cfg: &GroceryConfig) -> SyntheticDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut schema = Schema::new();
    let age = schema.add_numeric_labeled(
        "age",
        &[25.0, 40.0, 60.0],
        &["student-age", "young", "middle-age", "senior"],
    );
    let occupation = schema.add_categorical("occupation");
    let city = schema.add_categorical("city");
    let organic_share = schema.add_categorical("organic_share");

    let mut b = UserDataBuilder::new(schema);
    for (i, &(p, _)) in PRODUCTS.iter().enumerate() {
        let cat = if PRODUCTS[i].1 {
            "organic"
        } else {
            "conventional"
        };
        b.item(p, Some(cat));
        let _ = p;
    }

    let cities = ["paris", "grenoble", "lyon", "marseille", "toulouse"];
    let occupations = ["professional", "student", "retired", "trades", "unemployed"];
    let mut is_yp = Vec::with_capacity(cfg.n_users);
    let mut latent = Vec::with_capacity(cfg.n_users);
    for u in 0..cfg.n_users {
        let user = b.user(&format!("shopper-{u:05}"));
        let age_val = 18.0 + 60.0 * rng.gen::<f64>();
        b.set_demo_numeric(user, age, age_val);
        let occ = occupations[weighted_choice(&mut rng, &[2.5, 1.5, 1.5, 1.2, 0.5])];
        b.set_demo(user, occupation, occ)
            .expect("occupation interns");
        let c = cities[weighted_choice(&mut rng, &[4.0, 1.0, 2.0, 1.5, 1.0])];
        b.set_demo(user, city, c).expect("city interns");
        let young_professional = (25.0..40.0).contains(&age_val) && occ == "professional";
        is_yp.push(young_professional);
        latent.push(u32::from(young_professional));
    }

    let shopper_pick = Zipf::new(cfg.n_users.max(1), 0.6);
    let organic_products: Vec<usize> = PRODUCTS
        .iter()
        .enumerate()
        .filter(|(_, p)| p.1)
        .map(|(i, _)| i)
        .collect();
    let conventional: Vec<usize> = PRODUCTS
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.1)
        .map(|(i, _)| i)
        .collect();
    for _ in 0..cfg.n_purchases {
        let u = shopper_pick.sample(&mut rng);
        let p_org = if is_yp[u] { cfg.organic_affinity } else { 0.15 };
        let pool = if rng.gen::<f64>() < p_org {
            &organic_products
        } else {
            &conventional
        };
        let p = pool[rng.gen_range(0..pool.len())];
        let user = b
            .find_user(&format!("shopper-{u:05}"))
            .expect("user exists");
        let item = b.item(PRODUCTS[p].0, None);
        b.action(user, item, 1.0);
    }

    let organic_flags: Vec<bool> = PRODUCTS.iter().map(|p| p.1).collect();
    b.derive_attribute(organic_share, move |_, acts| {
        if acts.is_empty() {
            return String::new();
        }
        let organic = acts
            .iter()
            .filter(|a| organic_flags[a.item.index()])
            .count();
        let share = organic as f64 / acts.len() as f64;
        if share >= 0.5 {
            "mostly-organic"
        } else if share >= 0.2 {
            "mixed"
        } else {
            "conventional"
        }
        .to_string()
    })
    .expect("derive organic_share");

    SyntheticDataset {
        data: b.build(),
        latent,
        name: "grocery",
    }
}

// Small helper: uniform pick from a const slice.
trait Select<T> {
    fn select<R: Rng + ?Sized>(&self, rng: &mut R) -> &T;
}

impl<T> Select<T> for [T] {
    fn select<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        &self[rng.gen_range(0..self.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bookcrossing_tiny_has_expected_shape() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let d = &ds.data;
        assert_eq!(d.n_users(), 300);
        assert_eq!(ds.latent.len(), 300);
        assert_eq!(d.n_actions(), 2_000);
        assert!(d.n_items() >= 200); // all books pre-created
        assert_eq!(d.schema().len(), 5);
        // Ratings lie in 1..=10.
        assert!(d.actions().iter().all(|a| (1.0..=10.0).contains(&a.value)));
    }

    #[test]
    fn bookcrossing_is_deterministic() {
        let a = bookcrossing(&BookCrossingConfig::tiny());
        let b = bookcrossing(&BookCrossingConfig::tiny());
        assert_eq!(a.latent, b.latent);
        assert_eq!(a.data.n_actions(), b.data.n_actions());
        for (x, y) in a.data.actions().iter().zip(b.data.actions()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn bookcrossing_different_seeds_differ() {
        let a = bookcrossing(&BookCrossingConfig::tiny());
        let b = bookcrossing(&BookCrossingConfig {
            seed: 8,
            ..BookCrossingConfig::tiny()
        });
        assert_ne!(
            a.data.actions().iter().map(|x| x.value).sum::<f32>(),
            b.data.actions().iter().map(|x| x.value).sum::<f32>()
        );
    }

    #[test]
    fn bookcrossing_ratings_skew_high() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let mean: f32 =
            ds.data.actions().iter().map(|a| a.value).sum::<f32>() / ds.data.n_actions() as f32;
        assert!(mean > 5.5, "mean rating {mean} should skew high");
    }

    #[test]
    fn bookcrossing_communities_shape_demographics() {
        // Users in the same community should share their favorite genre far
        // more often than users in different communities.
        let ds = bookcrossing(&BookCrossingConfig {
            n_users: 600,
            n_books: 300,
            n_ratings: 8_000,
            n_communities: 3,
            seed: 5,
        });
        let d = &ds.data;
        let fav = d.schema().attr("favorite_genre").unwrap();
        let mut same = 0.0;
        let mut same_hits = 0.0;
        let mut diff = 0.0;
        let mut diff_hits = 0.0;
        let users: Vec<_> = d.users().collect();
        for i in (0..users.len()).step_by(7) {
            for j in (i + 1..users.len()).step_by(11) {
                let (a, b) = (users[i], users[j]);
                let (va, vb) = (d.value(a, fav), d.value(b, fav));
                if va.is_missing() || vb.is_missing() {
                    continue;
                }
                if ds.latent[i] == ds.latent[j] {
                    same += 1.0;
                    if va == vb {
                        same_hits += 1.0;
                    }
                } else {
                    diff += 1.0;
                    if va == vb {
                        diff_hits += 1.0;
                    }
                }
            }
        }
        assert!(same > 0.0 && diff > 0.0);
        assert!(
            same_hits / same > diff_hits / diff,
            "within-community favorite-genre agreement {} should exceed cross {}",
            same_hits / same,
            diff_hits / diff
        );
    }

    #[test]
    fn dbauthors_tiny_has_expected_shape() {
        let ds = dbauthors(&DbAuthorsConfig::tiny());
        let d = &ds.data;
        assert_eq!(d.n_users(), 250);
        assert_eq!(d.n_actions(), 1_500);
        assert_eq!(d.schema().len(), 6);
        let gender = d.schema().attr("gender").unwrap();
        let males = d
            .users()
            .filter(|&u| d.schema().value_label(gender, d.value(u, gender)) == "male")
            .count();
        let share = males as f64 / d.n_users() as f64;
        assert!(
            (0.5..0.8).contains(&share),
            "male share {share} should be near 0.64"
        );
    }

    #[test]
    fn dbauthors_seniority_correlates_with_output() {
        let ds = dbauthors(&DbAuthorsConfig {
            n_authors: 500,
            n_publications: 8_000,
            ..DbAuthorsConfig::tiny()
        });
        let d = &ds.data;
        let sen = d.schema().attr("seniority").unwrap();
        let mut junior = (0usize, 0usize);
        let mut very_senior = (0usize, 0usize);
        for u in d.users() {
            let label = d.schema().value_label(sen, d.value(u, sen)).to_string();
            let acts = d.user_activity(u);
            if label == "junior" {
                junior = (junior.0 + acts, junior.1 + 1);
            } else if label == "very senior" {
                very_senior = (very_senior.0 + acts, very_senior.1 + 1);
            }
        }
        assert!(junior.1 > 0 && very_senior.1 > 0);
        let j = junior.0 as f64 / junior.1 as f64;
        let v = very_senior.0 as f64 / very_senior.1 as f64;
        assert!(v > j, "very senior mean pubs {v} should exceed junior {j}");
    }

    #[test]
    fn grocery_plants_the_hypothesis() {
        let ds = grocery(&GroceryConfig {
            n_users: 1_000,
            n_purchases: 20_000,
            ..Default::default()
        });
        let d = &ds.data;
        // Organic purchase rate for young professionals vs others.
        let mut yp = (0usize, 0usize);
        let mut other = (0usize, 0usize);
        for (i, u) in d.users().enumerate() {
            for a in d.user_actions(u) {
                let organic = d.item_category(a.item) == Some("organic");
                if ds.latent[i] == 1 {
                    yp = (yp.0 + usize::from(organic), yp.1 + 1);
                } else {
                    other = (other.0 + usize::from(organic), other.1 + 1);
                }
            }
        }
        assert!(yp.1 > 100 && other.1 > 100);
        let yp_rate = yp.0 as f64 / yp.1 as f64;
        let other_rate = other.0 as f64 / other.1 as f64;
        assert!(
            yp_rate > other_rate + 0.1,
            "young-professional organic rate {yp_rate} vs others {other_rate}"
        );
    }

    #[test]
    fn generators_fill_derived_attributes() {
        let ds = bookcrossing(&BookCrossingConfig::tiny());
        let d = &ds.data;
        let act = d.schema().attr("activity").unwrap();
        // Every user has an activity level (even "silent").
        assert!(d.users().all(|u| !d.value(u, act).is_missing()));
    }
}
