//! The STATS module: demographic histograms over one group's members with
//! coordinated brushing and the selected-user table.
//!
//! "Histograms will show an exhaustive list of demographic distributions in
//! STATS … The explorer can brush on histograms and constrain the set of
//! users … An updated list of selected users is shown in a table."

use crate::crossfilter::{Crossfilter, DimId};
use std::collections::HashMap;
use vexus_data::{AttrId, UserData, UserId};

/// Coordinated demographic views over a set of users.
pub struct StatsView<'a> {
    data: &'a UserData,
    /// The users under inspection (e.g. one group's members); row `r` of the
    /// crossfilter corresponds to `users[r]`.
    users: Vec<UserId>,
    cf: Crossfilter,
    /// Attribute -> (dimension, value labels).
    dims: HashMap<AttrId, DimId>,
    /// Extra dimension over activity (number of actions), for tables like
    /// the paper's publication-count drill-down.
    activity_dim: DimId,
}

impl<'a> StatsView<'a> {
    /// Build the view over `users` (every schema attribute becomes one
    /// categorical dimension; a numeric "activity" dimension is added from
    /// the action log). `None` if the schema is too wide for that: the
    /// attributes plus activity must fit in [`crate::crossfilter::MAX_DIMS`].
    pub fn new(data: &'a UserData, users: Vec<UserId>) -> Option<Self> {
        if data.schema().len() >= crate::crossfilter::MAX_DIMS {
            return None;
        }
        let n = users.len();
        let mut cf = Crossfilter::new(n);
        let mut dims = HashMap::new();
        for (attr, _) in data.schema().iter() {
            // Missing values get their own trailing bin.
            let n_cats = data.schema().cardinality(attr) + 1;
            let missing_bin = (n_cats - 1) as u32;
            let cats: Vec<u32> = users
                .iter()
                .map(|&u| {
                    let v = data.value(u, attr);
                    if v.is_missing() {
                        missing_bin
                    } else {
                        v.raw()
                    }
                })
                .collect();
            let dim = cf.add_categorical(cats, n_cats);
            dims.insert(attr, dim);
        }
        let activity: Vec<f64> = users
            .iter()
            .map(|&u| data.user_activity(u) as f64)
            .collect();
        let activity_dim = cf.add_numeric(activity, &[1.0, 5.0, 20.0, 100.0]);
        Some(Self {
            data,
            users,
            cf,
            dims,
            activity_dim,
        })
    }

    /// Number of users under inspection.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Number of users passing all current brushes.
    pub fn n_selected(&self) -> usize {
        self.cf.selection_count()
    }

    /// Histogram of an attribute: `(value label, count)` pairs, including a
    /// `"<missing>"` bucket when populated. Reflects brushes on all *other*
    /// dimensions.
    pub fn histogram(&self, attr: AttrId) -> Vec<(String, u64)> {
        let dim = self.dims[&attr];
        let counts = self.cf.histogram(dim).counts;
        let card = self.data.schema().cardinality(attr);
        let mut out = Vec::with_capacity(counts.len());
        for (bin, &c) in counts.iter().enumerate() {
            let label = if bin == card {
                if c == 0 {
                    continue;
                }
                "<missing>".to_string()
            } else {
                self.data
                    .schema()
                    .value_label(attr, vexus_data::ValueId::new(bin as u32))
                    .to_string()
            };
            out.push((label, c));
        }
        out
    }

    /// Share of selected users with the given attribute value (the paper's
    /// "62 % of its members are male" readout). Returns `None` for unknown
    /// labels.
    pub fn share(&self, attr: AttrId, label: &str) -> Option<f64> {
        let hist = self.histogram(attr);
        let total: u64 = hist.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return Some(0.0);
        }
        hist.iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| *c as f64 / total as f64)
    }

    /// Brush an attribute to the given value labels ("limit the search only
    /// to females" = `brush(gender, &["female"])`). Unknown labels are
    /// ignored; an empty resolved set deselects everything.
    pub fn brush(&mut self, attr: AttrId, labels: &[&str]) {
        let dim = self.dims[&attr];
        let cats: Vec<u32> = labels
            .iter()
            .filter_map(|l| self.data.schema().value(attr, l))
            .map(|v| v.raw())
            .collect();
        self.cf.brush_categories(dim, &cats);
    }

    /// Brush the activity dimension to `[lo, hi)` actions.
    pub fn brush_activity(&mut self, lo: f64, hi: f64) {
        self.cf.brush_range(self.activity_dim, lo, hi);
    }

    /// Clear the brush on an attribute.
    pub fn clear_brush(&mut self, attr: AttrId) {
        self.cf.clear_brush(self.dims[&attr]);
    }

    /// Clear every brush.
    pub fn clear_all(&mut self) {
        let attrs: Vec<AttrId> = self.dims.keys().copied().collect();
        for a in attrs {
            self.cf.clear_brush(self.dims[&a]);
        }
        self.cf.clear_brush(self.activity_dim);
    }

    /// The table of selected users, most active first: `(user, name,
    /// activity)` rows.
    pub fn table(&self, k: usize) -> Vec<(UserId, String, usize)> {
        self.cf
            .top(self.activity_dim, k)
            .into_iter()
            .map(|r| {
                let u = self.users[r as usize];
                (
                    u,
                    self.data.user_name(u).to_string(),
                    self.data.user_activity(u),
                )
            })
            .collect()
    }

    /// Selected users (dataset ids).
    pub fn selected_users(&self) -> Vec<UserId> {
        self.cf
            .selected()
            .into_iter()
            .map(|r| self.users[r as usize])
            .collect()
    }

    /// Render all histograms as fixed-width text (for the CLI examples and
    /// the F2 render experiment).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (attr, def) in self.data.schema().iter() {
            out.push_str(&format!("[{}]\n", def.name));
            let hist = self.histogram(attr);
            let max = hist.iter().map(|(_, c)| *c).max().unwrap_or(0).max(1);
            for (label, count) in hist {
                let bar = "#".repeat(((count * 30) / max) as usize);
                out.push_str(&format!("  {label:<20} {count:>6} {bar}\n"));
            }
        }
        out.push_str(&format!(
            "selected: {} / {}\n",
            self.n_selected(),
            self.n_users()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vexus_data::{Schema, UserDataBuilder};

    fn data() -> UserData {
        let mut s = Schema::new();
        let gender = s.add_categorical("gender");
        let seniority = s.add_categorical("seniority");
        let mut b = UserDataBuilder::new(s);
        let names = ["elke", "bob", "carol", "dan", "eve", "frank"];
        let genders = ["female", "male", "female", "male", "female", "male"];
        let levels = [
            "very senior",
            "junior",
            "senior",
            "very senior",
            "junior",
            "junior",
        ];
        let paper = b.item("paper", None);
        for ((name, g), l) in names.iter().zip(genders).zip(levels) {
            let u = b.user(name);
            b.set_demo(u, gender, g).unwrap();
            b.set_demo(u, seniority, l).unwrap();
            // elke is extremely active.
            let pubs = if *name == "elke" { 30 } else { 2 };
            for _ in 0..pubs {
                b.action(u, paper, 1.0);
            }
        }
        b.build()
    }

    #[test]
    fn histograms_show_demographic_distributions() {
        let d = data();
        let view = StatsView::new(&d, d.users().collect()).unwrap();
        let gender = d.schema().attr("gender").unwrap();
        let hist = view.histogram(gender);
        assert_eq!(
            hist,
            vec![("female".to_string(), 3), ("male".to_string(), 3)]
        );
        assert_eq!(view.share(gender, "male"), Some(0.5));
    }

    #[test]
    fn paper_drill_down_scenario() {
        // "by brushing on gender to select females and on publication rate
        // to select extremely active … the table lists Elke".
        let d = data();
        let mut view = StatsView::new(&d, d.users().collect()).unwrap();
        let gender = d.schema().attr("gender").unwrap();
        view.brush(gender, &["female"]);
        view.brush_activity(20.0, 1e9);
        let table = view.table(10);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].1, "elke");
        assert_eq!(table[0].2, 30);
        assert_eq!(view.n_selected(), 1);
    }

    #[test]
    fn brushing_is_coordinated_across_histograms() {
        let d = data();
        let mut view = StatsView::new(&d, d.users().collect()).unwrap();
        let gender = d.schema().attr("gender").unwrap();
        let seniority = d.schema().attr("seniority").unwrap();
        view.brush(gender, &["female"]);
        // Seniority histogram now reflects only females.
        let hist = view.histogram(seniority);
        let get = |l: &str| {
            hist.iter()
                .find(|(x, _)| x == l)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(get("very senior"), 1); // elke
        assert_eq!(get("junior"), 1); // eve
        assert_eq!(get("senior"), 1); // carol
                                      // Gender histogram itself is unaffected by its own brush.
        assert_eq!(
            view.histogram(gender),
            vec![("female".to_string(), 3), ("male".to_string(), 3)]
        );
    }

    #[test]
    fn unlearn_by_clearing_brush() {
        let d = data();
        let mut view = StatsView::new(&d, d.users().collect()).unwrap();
        let gender = d.schema().attr("gender").unwrap();
        view.brush(gender, &["female"]);
        assert_eq!(view.n_selected(), 3);
        view.clear_brush(gender);
        assert_eq!(view.n_selected(), 6);
        view.brush(gender, &["female"]);
        view.brush_activity(20.0, 1e9);
        view.clear_all();
        assert_eq!(view.n_selected(), 6);
    }

    #[test]
    fn view_over_subset_of_users() {
        let d = data();
        // Only the first three users (a "group").
        let members: Vec<UserId> = d.users().take(3).collect();
        let view = StatsView::new(&d, members).unwrap();
        assert_eq!(view.n_users(), 3);
        let gender = d.schema().attr("gender").unwrap();
        assert_eq!(
            view.histogram(gender),
            vec![("female".to_string(), 2), ("male".to_string(), 1)]
        );
    }

    #[test]
    fn missing_values_get_a_bucket() {
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let mut b = UserDataBuilder::new(s);
        let u1 = b.user("known");
        b.set_demo(u1, g, "female").unwrap();
        b.user("anon");
        let d = b.build();
        let view = StatsView::new(&d, d.users().collect()).unwrap();
        let hist = view.histogram(g);
        assert!(hist.contains(&("<missing>".to_string(), 1)));
    }

    #[test]
    fn render_text_mentions_every_attribute() {
        let d = data();
        let view = StatsView::new(&d, d.users().collect()).unwrap();
        let text = view.render_text();
        assert!(text.contains("[gender]"));
        assert!(text.contains("[seniority]"));
        assert!(text.contains("selected: 6 / 6"));
    }

    #[test]
    fn empty_user_set() {
        let d = data();
        let view = StatsView::new(&d, Vec::new()).unwrap();
        assert_eq!(view.n_selected(), 0);
        let gender = d.schema().attr("gender").unwrap();
        assert_eq!(view.share(gender, "male"), Some(0.0));
        assert!(view.table(5).is_empty());
    }
}
