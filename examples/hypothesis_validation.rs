//! Hypothesis validation via group exploration — the paper's motivating
//! example from [12]: "young professionals are more inclined to buying
//! organic food".
//!
//! The grocery generator plants exactly that effect; this example shows how
//! an analyst verifies it with VEXUS: locate the "young & professional"
//! group, open STATS, and compare the organic-share histogram against the
//! population.
//!
//! Run with: `cargo run --release --example hypothesis_validation`

use vexus::core::engine::VexusBuilder;
use vexus::core::EngineConfig;
use vexus::data::synthetic::{grocery, GroceryConfig};
use vexus::data::UserId;
use vexus::stats::StatsView;

fn main() {
    let dataset = grocery(&GroceryConfig::default());
    let vexus = VexusBuilder::new(dataset.data)
        .config(EngineConfig::paper())
        .build()
        .expect("group space non-empty");
    let data = vexus.data();
    let schema = data.schema();

    // Find the closed group "age=young & occupation=professional".
    let age = schema.attr("age").expect("age");
    let occupation = schema.attr("occupation").expect("occupation");
    let young = schema.value(age, "young").expect("young");
    let professional = schema
        .value(occupation, "professional")
        .expect("professional");
    let young_tok = vexus.vocab().token(age, young).expect("token");
    let prof_tok = vexus
        .vocab()
        .token(occupation, professional)
        .expect("token");
    let (gid, group) = vexus
        .groups()
        .iter()
        .find(|(_, g)| g.describes(young_tok) && g.describes(prof_tok))
        .expect("the young-professionals group is frequent");
    println!(
        "hypothesis group: {} ({} members)",
        group.label(vexus.vocab(), schema),
        group.size()
    );

    // Organic-share distribution inside the group vs the population.
    let organic = schema.attr("organic_share").expect("organic_share");
    let session = vexus.session().expect("session opens");
    let group_stats = session.stats_view(gid).expect("stats view");
    let population: Vec<UserId> = data.users().collect();
    let population_stats = StatsView::new(data, population).expect("schema fits the view");

    println!(
        "\n{:<16} {:>12} {:>12}",
        "organic share", "group", "population"
    );
    for label in ["mostly-organic", "mixed", "conventional"] {
        let g = group_stats.share(organic, label).unwrap_or(0.0);
        let p = population_stats.share(organic, label).unwrap_or(0.0);
        println!("{label:<16} {:>11.1}% {:>11.1}%", g * 100.0, p * 100.0);
    }
    let g_organic = group_stats.share(organic, "mostly-organic").unwrap_or(0.0)
        + group_stats.share(organic, "mixed").unwrap_or(0.0);
    let p_organic = population_stats
        .share(organic, "mostly-organic")
        .unwrap_or(0.0)
        + population_stats.share(organic, "mixed").unwrap_or(0.0);
    println!(
        "\nverdict: young professionals buy organic-leaning baskets {:.1}x as often as the population -> hypothesis {}",
        g_organic / p_organic.max(1e-9),
        if g_organic > p_organic * 1.2 { "SUPPORTED" } else { "NOT SUPPORTED" }
    );
}
