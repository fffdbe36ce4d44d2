"""Wrapper-level checks for the named verification suites at reduced scale."""
import pytest

from torsion_lab.errors import InputError
from torsion_lab.suites import SUITES, SuiteResult, run_suite


def test_all_suites_registered():
    assert sorted(SUITES) == [
        "ass-singleton", "finite-length", "gabriel-split", "injective-criterion",
        "localisation-invariance", "mccoy", "morphisms", "pruning", "type-closure",
    ]


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite("no-such-suite", {})


@pytest.mark.parametrize("name,options", [
    ("finite-length", {"max_dim": 2}),
    ("ass-singleton", {"max_order": 36}),
    ("gabriel-split", {"max_order": 24}),
    ("mccoy", {"seed": 1}),
    ("morphisms", {}),
    ("injective-criterion", {}),
    ("pruning", {"max_order": 32}),
    ("type-closure", {}),
    ("localisation-invariance", {"max_order": 16}),
])
def test_suite_passes_at_reduced_scale(name, options):
    result = run_suite(name, options)
    assert result.passed, result.failures[:3]
    assert result.instances > 0
    payload = result.as_dict()
    assert payload["suite"] == name and payload["passed"] is True


def test_suite_with_no_instance_is_refused():
    with pytest.raises(InputError, match="no instance to check"):
        run_suite("ass-singleton", {"max_order": 0})


def test_suite_repeat_runs_match():
    first = run_suite("ass-singleton", {"max_order": 24}).as_dict()
    second = run_suite("ass-singleton", {"max_order": 24}).as_dict()
    assert first == second


def test_suite_results_do_not_share_failures():
    a, b = SuiteResult("a", "s"), SuiteResult(name="b", statement="t")
    assert (a.instances, a.failures, a.passed) == (0, [], True)
    a.check(False, "broken")
    b.check(True, "fine")
    assert (a.instances, a.failures, a.passed) == (1, ["broken"], False)
    assert (b.instances, b.failures, b.passed) == (1, [], True)
    c = SuiteResult("c", "u", 2, ["x"])
    assert c.as_dict() == {"suite": "c", "statement": "u", "instances": 2,
                           "failures": ["x"], "passed": False}
