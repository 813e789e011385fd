//! Extension: the paper's stated ongoing/future work, implemented and
//! measured — suffix-based cluster merging (with the §6 AS hint as a
//! guard), selective-sampling validation (§3.3's threshold idea), and
//! real-time streaming clustering (§4).

use netclust_bench::{nagano_env, pct, print_table};
use netclust_core::{
    merge_by_name_suffix, org_purity, selective_validate, Clustering, ErrorCounts, SamplePlan,
    SelectiveMode, StreamingClustering,
};
use netclust_prefix::Ipv4Net;

fn main() {
    let (universe, log, merged) = nagano_env();
    let clustering = Clustering::network_aware(&log, &merged);

    // --- Suffix-based merging with and without the AS hint ----------------
    // The AS hint comes from the announcement data (origin AS per prefix),
    // exactly what real BGP dumps carry in their AS paths.
    let origin_trie: netclust_rtable::PrefixTrie<u32> = universe
        .announcements(0)
        .into_iter()
        .map(|a| (a.prefix, a.as_id))
        .collect();
    // Origin AS of a cluster prefix: exact announcement, or the covering
    // one (registry-derived prefixes are not announced verbatim).
    let origin_of = |p: Ipv4Net| -> Option<u32> {
        origin_trie
            .get(p)
            .copied()
            .or_else(|| origin_trie.longest_match(p.addr()).map(|(_, &asn)| asn))
    };
    let unguarded = merge_by_name_suffix(
        &universe,
        &log,
        &clustering,
        3,
        7,
        None::<fn(Ipv4Net) -> Option<u32>>,
    );
    let guarded = merge_by_name_suffix(&universe, &log, &clustering, 3, 7, Some(origin_of));
    let rows = vec![
        vec![
            "no AS guard".to_string(),
            unguarded.merged_away.to_string(),
            unguarded.blocked_by_as_guard.to_string(),
            unguarded.clustering.len().to_string(),
            pct(org_purity(&universe, &unguarded.clustering)),
        ],
        vec![
            "AS-guarded (§6)".to_string(),
            guarded.merged_away.to_string(),
            guarded.blocked_by_as_guard.to_string(),
            guarded.clustering.len().to_string(),
            pct(org_purity(&universe, &guarded.clustering)),
        ],
    ];
    print_table(
        &format!(
            "Suffix-based cluster merging (nagano; before: {} clusters, purity {})",
            clustering.len(),
            pct(org_purity(&universe, &clustering))
        ),
        &[
            "variant",
            "merged away",
            "blocked by guard",
            "clusters after",
            "purity after",
        ],
        &rows,
    );
    println!("unguarded merges that lower purity are name-collision errors (distinct orgs with");
    println!("look-alike domains); the §6 AS hint blocks exactly those while still permitting");
    println!("same-AS fragment merges — 'using information on ASes to reduce the error ratio'");

    // --- Selective-sampling validation -------------------------------------
    let plan = SamplePlan::default();
    let mut rows = Vec::new();
    for (label, tol, mode) in [
        ("strict (0%)", 0.0, SelectiveMode::ClientBased),
        ("5% client-based", 0.05, SelectiveMode::ClientBased),
        ("5% request-based", 0.05, SelectiveMode::RequestBased),
        ("10% client-based", 0.10, SelectiveMode::ClientBased),
    ] {
        let r = selective_validate(&universe, &clustering, &plan, tol, mode);
        rows.push(vec![
            label.to_string(),
            r.sampled_clusters.to_string(),
            r.passed.to_string(),
            pct(r.pass_rate()),
            r.rescued.to_string(),
        ]);
    }
    print_table(
        "Selective-sampling validation (§3.3's threshold idea)",
        &[
            "tolerance",
            "sampled",
            "passed",
            "pass rate",
            "rescued vs strict",
        ],
        &rows,
    );

    // --- Streaming clustering -----------------------------------------------
    let mut stream =
        StreamingClustering::builder(netclust_netgen::standard_merged(&universe, 0)).build();
    let checkpoints = [0.25, 0.5, 0.75, 1.0];
    let mut rows = Vec::new();
    let mut fed = 0usize;
    for &frac in &checkpoints {
        let until = (log.requests.len() as f64 * frac) as usize;
        for r in &log.requests[fed..until] {
            stream.push(r);
        }
        fed = until;
        let top = stream.top_k(1);
        rows.push(vec![
            format!("{:.0}%", frac * 100.0),
            stream.len().to_string(),
            pct(stream.coverage()),
            top.first()
                .map(|(p, s)| format!("{p} ({} reqs)", s.requests))
                .unwrap_or_default(),
        ]);
    }
    print_table(
        "Real-time streaming clustering (nagano replay)",
        &["stream progress", "clusters", "coverage", "busiest cluster"],
        &rows,
    );
    // Adapt to routing dynamics: swap in day 7's tables mid-flight.
    let swap = stream.try_swap(
        netclust_netgen::standard_merged(&universe, 7),
        ErrorCounts::default(),
    );
    assert!(swap.accepted, "day-7 swap rejected: {:?}", swap.rejection);
    println!(
        "\nafter swapping in day-7 tables: {} clusters, coverage {} (rebuilt without replay)",
        stream.len(),
        pct(stream.coverage())
    );
}
