//! Arming a fail point outside a `FailScenario` is a bug: the sites are
//! live in every build, so a stray `configure` would fault every test in
//! its process. This binary holds a single test, so no other test's
//! scenario can hold the lock while it runs.

use vexus_data::failpoint::{self as fp, FailAction, Trigger};

#[test]
fn bare_configure_panics() {
    let err = std::panic::catch_unwind(|| {
        fp::configure("t.bare", Trigger::Always, FailAction::Error);
    })
    .unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("outside a FailScenario"), "{msg}");
    assert!(!fp::hit("t.bare"), "the refused site stays unarmed");
    // Inside a scenario the same call arms the site.
    let _scenario = fp::FailScenario::setup();
    fp::configure("t.bare", Trigger::Always, FailAction::Error);
    assert!(fp::hit("t.bare"));
}
