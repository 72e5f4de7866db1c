"""Multi-query scaling: N standing queries vs N independent engines.

The service scenario behind the ROADMAP north-star: one stream, many
concurrent standing queries.  A shared :class:`~repro.core.registry.MultiQueryEngine`
pays the graph mutation, index-update sweep and (process backend)
snapshot export once per batch and shares raw candidate scans across
queries, so the marginal cost of the Nth query is far below the cost of
an Nth engine.  The table reports, for N in {1, 2, 4, 8}:

* total runtime of N independent engines vs one shared engine,
* total ``candidates_scanned`` for both (deterministic, the gated metric),
* the scan-sharing ratio (shared / independent).

Correctness is asserted alongside: per-query results of the shared run
must be identical to the independent engines'.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream, run_multi_query_stream
from repro.datasets import build_query_workload

#: suffix streamed after the initial load, and the per-snapshot batch size
SUFFIX = 400
BATCH = 128

QUERY_COUNTS = (1, 2, 4, 8)


def positive_identities(run_result) -> set:
    return set(run_result.all_positive().identities())


def test_multi_query_scaling(netflow_workload):
    stream, _ = netflow_workload
    workload = build_query_workload(
        stream, tree_sizes=(3, 4, 5, 6, 7, 9), graph_sizes=(5, 6),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    queries = [(suite, query) for suite, query in workload]
    assert len(queries) >= max(QUERY_COUNTS)
    prefix = len(stream) - SUFFIX

    rows = []
    for n in QUERY_COUNTS:
        subset = queries[:n]
        independent_seconds = 0.0
        independent_scanned = 0
        independent_results = {}
        for suite, query in subset:
            run = run_mnemonic_stream(
                query, stream, initial_prefix=prefix, batch_size=BATCH,
                collect_embeddings=True, query_name=suite,
            )
            independent_seconds += run.seconds
            independent_scanned += run.extra["candidates_scanned"]
            independent_results[suite] = positive_identities(run.run_result)

        shared = run_multi_query_stream(
            subset, stream, initial_prefix=prefix, batch_size=BATCH,
            collect_embeddings=True,
        )
        for suite, _query in subset:
            assert (
                positive_identities(shared.per_query[suite].run_result)
                == independent_results[suite]
            ), f"shared results diverged for {suite} at N={n}"
        assert shared.candidates_scanned <= independent_scanned
        if n > 1:
            # Sharing must actually kick in once queries overlap.
            assert shared.candidates_scanned < independent_scanned

        ratio = (
            shared.candidates_scanned / independent_scanned
            if independent_scanned
            else 1.0
        )
        rows.append(
            (n, independent_seconds, shared.seconds, independent_scanned,
             shared.candidates_scanned, ratio)
        )

    lines = [
        "Multi-query scaling: N standing queries, one shared engine vs N engines",
        f"(NetFlow suffix={SUFFIX}, batch={BATCH}; scans are the deterministic metric)",
        "",
        f"{'N':>2}  {'N-engines s':>11}  {'shared s':>9}  "
        f"{'N-engines scans':>15}  {'shared scans':>12}  {'scan ratio':>10}",
    ]
    for n, ind_s, sh_s, ind_c, sh_c, ratio in rows:
        lines.append(
            f"{n:>2}  {ind_s:>11.3f}  {sh_s:>9.3f}  {ind_c:>15}  {sh_c:>12}  {ratio:>10.2f}"
        )
    write_result("multi_query_scaling", "\n".join(lines))
