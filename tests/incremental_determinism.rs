//! Thread-count determinism of the incremental statistical core: table3
//! (the staged warm-start Cox-Time trainer) and fig8 (CELF selection
//! inside the cluster simulation) must render byte-identical output at 1
//! and 4 workers. The whole check lives in a single `#[test]` (its own
//! binary) so the env-var mutations can never race another test.

use anubis_bench::experiments::{fig8, table3};

/// Renders table3 and fig8 under the current `ANUBIS_THREADS`.
fn render_both() -> (String, String) {
    let t3 = table3::run(&table3::Table3Config::quick()).to_string();
    let f8 = fig8::run(&fig8::Fig8Config::quick()).to_string();
    (t3, f8)
}

#[test]
fn incremental_core_renders_identically_across_thread_counts() {
    std::env::set_var("ANUBIS_THREADS", "1");
    let (table3_one, fig8_one) = render_both();
    std::env::set_var("ANUBIS_THREADS", "4");
    let (table3_four, fig8_four) = render_both();
    std::env::remove_var("ANUBIS_THREADS");
    assert_eq!(
        table3_one, table3_four,
        "table3 must render identically at 1 and 4 workers"
    );
    assert_eq!(
        fig8_one, fig8_four,
        "fig8 must render identically at 1 and 4 workers"
    );
}
