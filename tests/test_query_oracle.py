"""Differential tests: indexed engine vs brute-force reference evaluator."""

from randcases import run_differential_sweep


def test_engine_matches_reference_on_random_cases():
    stats = run_differential_sweep(num_graphs=40, seed=99173)
    assert stats["graphs"] == 40
    # the sweep must exercise real results, not just empty tables and errors
    assert stats["nonempty"] >= 10
    assert stats["errors"] >= 1
    # parameters stand in pattern positions, some bound to literals where no
    # triple holds one (subject, predicate)
    assert stats["with_params"] >= 20
    assert stats["literal_subject_or_predicate_params"] >= 5
    # parameters stand as operands in filters and projections too
    assert stats["expression_params"] >= 10
