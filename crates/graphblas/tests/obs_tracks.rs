//! Trace-track hygiene of the shared worker runtime (a test binary of its
//! own: span recording is process-global).
//!
//! `Parallel` and `Distributed` run on the same pool threads, and a
//! superstep's node 0 runs on the calling thread; a thread records under a
//! `node k/p` track only for the length of the superstep it serves.

use graphblas::{ctx, CsrMatrix, Distributed, Exec, Parallel, Vector};
use std::collections::BTreeSet;

#[test]
fn parallel_spans_after_a_superstep_stay_off_the_node_tracks() {
    // Two chunks per `Parallel` kernel, so the pool worker that just served
    // node 2/2 runs the second one.
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .unwrap();
    let n = 4096usize;
    let diagonal: Vec<_> = (0..n).map(|i| (i, i, 2.0)).collect();
    let a = CsrMatrix::<f64>::from_triplets(n, n, &diagonal).unwrap();
    let x = Vector::filled(n, 1.0);
    let mut y = Vector::zeros(n);

    obs::set_enabled(true);
    Distributed::new(2).ctx().mxv(&a, &x).into(&mut y).unwrap();
    let node_tracks: BTreeSet<u64> = obs::snapshot()
        .iter()
        .filter(|s| s.class == "shard")
        .map(|s| s.tid)
        .collect();
    assert_eq!(node_tracks.len(), 2, "one track per node of dist:2");

    // The kernel's own span lands on the caller (which ran node 1/2); the
    // first and last index run on the caller and on the pool worker.
    ctx::<Parallel>().mxv(&a, &x).into(&mut y).unwrap();
    Parallel.run_for_each(n, |i| {
        if i == 0 || i == n - 1 {
            drop(obs::span_enter("probe", "test"));
        }
    });
    obs::set_enabled(false);

    let after: Vec<_> = obs::snapshot()
        .into_iter()
        .filter(|s| matches!(s.name, "mxv" | "for_each" | "probe"))
        .collect();
    assert_eq!(after.len(), 4, "{after:?}");
    let probe_threads: BTreeSet<u64> = after
        .iter()
        .filter(|s| s.name == "probe")
        .map(|s| s.tid)
        .collect();
    assert_eq!(probe_threads.len(), 2, "both pool participants probed");
    for span in &after {
        assert!(
            !node_tracks.contains(&span.tid),
            "{} recorded on a node track",
            span.name
        );
    }
}
