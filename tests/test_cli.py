"""Command-line surface: exit codes, report schema, replay, determinism."""
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torsion_lab.cli import main

Z8 = '{"ring":{"kind":"Z"},"generators":1,"relations":[[8]]}'
Z6 = '{"ring":{"kind":"Z"},"generators":1,"relations":[[6]]}'
P1 = '{"quiver":{"vertices":2,"arrows":[[0,1]]},"p":2,"dims":[1,1],"maps":[[[1]]]}'
COUNTEREXAMPLE = '{"ring":{"kind":"BiPolyMonomialQuot","p":5,"rels":["xy"]},"ideal":["x"]}'


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_simple_module(capsys):
    code, out, _ = run_cli(capsys, "--json", "check", "--module", Z8)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] is True
    assert report["result"]["type"] == ["prime", 2]


def test_check_runs_simplicity_once(capsys, monkeypatch):
    from torsion_lab import engine
    real = engine.is_torsion_simple
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "is_torsion_simple", counting)
    rep = json.dumps({"quiver": {"vertices": 2, "arrows": [[0, 1]]},
                      "p": 2, "dims": [0, 2], "maps": [[[], []]]})
    for flag, obj, tag in (("--module", Z8, ["prime", 2]), ("--rep", rep, ["vertex", 1])):
        calls.clear()
        code, out, _ = run_cli(capsys, "--json", "check", flag, obj)
        assert code == 0
        assert json.loads(out)["result"]["type"] == tag
        assert len(calls) == 1


def test_check_witness_for_non_simple(capsys):
    code, out, _ = run_cli(capsys, "--json", "check", "--module", Z6)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] is False
    assert report["result"]["witness"] is not None


def test_check_rep(capsys):
    rep = json.dumps({"quiver": {"vertices": 2, "arrows": [[0, 1]]},
                      "p": 2, "dims": [1, 1], "maps": [[[1]]]})
    code, out, _ = run_cli(capsys, "--json", "check", "--rep", rep)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] is False
    assert report["result"]["witness"]["dims"] == [0, 1]


def test_torsion_parts_z6(capsys):
    code, out, _ = run_cli(capsys, "--json", "torsion-parts", "--module", Z6)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["count"] == 4


def test_ass_command(capsys):
    mod = '{"ring":{"kind":"Z"},"generators":1,"relations":[[12]]}'
    code, out, _ = run_cli(capsys, "--json", "ass", "--module", mod)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["associated_primes"] == [2, 3]
    assert report["result"]["includes_zero_ideal"] is False


def test_radical_generated(capsys):
    payload = json.dumps({
        "mode": "generated",
        "sources": [json.loads('{"ring":{"kind":"Z"},"generators":1,"relations":[[2]]}')],
        "object": json.loads('{"ring":{"kind":"Z"},"generators":1,"relations":[[4]]}'),
    })
    code, out, _ = run_cli(capsys, "--json", "radical", payload)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["torsion_radical"]["order"] == 4


def test_radical_cogenerated(capsys):
    payload = json.dumps({
        "mode": "cogenerated",
        "sources": [json.loads('{"ring":{"kind":"Z"},"generators":1,"relations":[[3]]}')],
        "object": json.loads('{"ring":{"kind":"Z"},"generators":1,"relations":[[4]]}'),
    })
    code, out, _ = run_cli(capsys, "--json", "radical", payload)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["torsion_radical"]["order"] == 4
    assert report["result"]["torsionfree_coradical"] == "0"


def test_mccoy_rank_command(capsys):
    payload = '{"ring":{"kind":"IntegersMod","n":4},"matrix":[[2]]}'
    code, out, _ = run_cli(capsys, "--json", "mccoy", "rank", payload)
    assert code == 0
    assert json.loads(out)["result"]["mccoy_rank"] == 0


def test_mccoy_nullvector_command(capsys):
    payload = '{"ring":{"kind":"IntegersMod","n":6},"matrix":[[3]]}'
    code, out, _ = run_cli(capsys, "--json", "mccoy", "nullvector", payload)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agree"] is True and result["nullvector"] == ["2"]


def test_mccoy_nullvector_infinite_ring(capsys):
    payload = '{"ring":{"kind":"Z"},"matrix":[[2,4]]}'
    code, out, _ = run_cli(capsys, "--json", "mccoy", "nullvector", payload)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["theorem_says_nullvector"] is True
    assert "exhaustive_says_nullvector" not in result
    explicit = '{"ring":{"kind":"Z"},"matrix":[[2,4]],"mode":"exhaustive"}'
    code2, _, _ = run_cli(capsys, "mccoy", "nullvector", explicit)
    assert code2 == 2


def test_mccoy_unit_over_local_bivariate_ring(capsys):
    # 1+y is a unit of F_2[x,y]/(x^2, y^2): rank 1, and both nullvector modes agree
    payload = ('{"ring":{"kind":"BiPolyMonomialQuot","p":2,"rels":["x^2","y^2"]},'
               '"matrix":[["1+y"]]}')
    code, out, _ = run_cli(capsys, "--json", "mccoy", "rank", payload)
    assert code == 0 and json.loads(out)["result"]["mccoy_rank"] == 1
    code, out, _ = run_cli(capsys, "--json", "mccoy", "nullvector", payload)
    result = json.loads(out)["result"]
    assert code == 0 and result["agree"] is True
    assert result["theorem_says_nullvector"] is False and result["nullvector"] is None


def test_hom_conormal_counterexample(capsys):
    code, out, _ = run_cli(capsys, "--json", "hom-conormal", COUNTEREXAMPLE)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["hom_nonzero"] is False
    assert result["presentation_matrix"] == [["y"]]


def test_radical_lemma_counterexample(capsys):
    payload = ('{"ring":{"kind":"BiPolyMonomialQuot","p":5,"rels":["xy"]},'
               '"ideal":["x"],"d":"x+y"}')
    code, out, _ = run_cli(capsys, "--json", "radical-lemma", payload)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["premise_dI_in_I2"] is True
    assert result["conclusion_d_in_radical"] is False
    assert result["violation"] is True
    assert result["expected_for_non_domain"] is True


@pytest.mark.parametrize("obj, source, radical, coradical", [
    ('{"ring":{"kind":"Z"},"generators":1,"relations":[[0]]}', 2, "0", "Z"),
    ('{"ring":{"kind":"Z"},"generators":3,"relations":[[0],[0],[0]]}', 100, "0", "Z + Z + Z"),
    ('{"ring":{"kind":"Z"},"generators":2,"relations":[[0,0],[0,3]]}', 100, "Z/3", "Z"),
])
def test_cogenerated_radical_of_an_infinite_module_by_a_finite_source(
        capsys, obj, source, radical, coradical):
    # the iterated reject from x itself would run Z > 2Z > 4Z > ...; from the
    # torsion submodule it stops at once
    payload = json.dumps({
        "mode": "cogenerated",
        "sources": [{"ring": {"kind": "Z"}, "generators": 1, "relations": [[source]]}],
        "object": json.loads(obj),
    })
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--json", "radical", payload)
    assert time.perf_counter() - start < 1
    assert code == 0
    result = json.loads(out)["result"]
    assert result["torsion_radical"]["module"] == radical
    assert result["torsionfree_coradical"] == coradical


@pytest.mark.parametrize("args", [
    ["finite-length", "--max-dim", "0"],
    ["ass-singleton", "--max-order", "0"],
    ["gabriel-split", "--max-order", "-5"],
])
def test_verify_with_no_instance_to_check_is_refused(capsys, args):
    code, out, err = run_cli(capsys, "--json", "verify", *args)
    assert code == 2 and not out
    assert f"suite {args[0]!r} no instance to check" in err


def test_finite_length_above_the_enumeration_bound_is_refused_at_once(capsys):
    # (5, 5) alone has 2^25 representations; none may be built before refusing
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", "verify", "finite-length", "--max-dim", "5")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "max_dim 5 exceeds the subrepresentation enumeration bound 4" in err


def test_finite_length_above_the_representation_cap_is_refused_at_once(capsys):
    # max_dim 4 passes the enumeration bound but lists 74,963 representations
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", "verify", "finite-length", "--max-dim", "4")
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "max_dim 4 lists 74963 A2 representations" in err


_IDENTITY_60 = json.dumps({"quiver": {"vertices": 2, "arrows": [[0, 1]]}, "p": 2,
                           "dims": [60, 60],
                           "maps": [[[int(i == j) for j in range(60)] for i in range(60)]]})


@pytest.mark.parametrize("command", ["torsion-parts"])
def test_pruned_rep_above_the_enumeration_bound_is_refused_at_once(capsys, command):
    # End(x) of a [60,60] representation has 3,600 basis elements; the
    # enumeration bound must refuse before it is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", command, "--rep", _IDENTITY_60)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "enumeration bound" in err


def test_rep_above_the_enumeration_bound_is_answered_at_once(capsys):
    # `auto` runs the single-vertex criterion; its witness is the sink part
    # (0, 60), rechecked by Hom(w, x/w) = 0 with nothing enumerated
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--json", "check", "--rep", _IDENTITY_60)
    assert time.perf_counter() - start < 1
    result = json.loads(out)["result"]
    assert code == 0 and result["method"] == "single-vertex-criterion"
    assert (result["verdict"], result["type"], result["witness"]["dims"]) == (False, None, [0, 60])


@pytest.mark.parametrize("dims", [[100_000, 1], [100_000, 100_000]])
def test_rep_whose_sink_witness_outgrows_its_maps_is_refused_at_once(capsys, dims):
    # a d x d basis per vertex for a 70-byte payload with no arrow map: refused
    # before any basis is built
    rep = json.dumps({"quiver": {"vertices": 2, "arrows": []}, "p": 2, "dims": dims,
                      "maps": []})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", "check", "--rep", rep)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "outgrows its arrow maps" in err


@pytest.mark.parametrize("vertices", [2 ** 63, 3_000_000])
def test_vertex_count_other_than_the_dims_count_is_refused_at_once(capsys, vertices):
    # the acyclicity check walks the arrows' endpoints, not every vertex
    rep = json.dumps({"quiver": {"vertices": vertices, "arrows": []},
                      "p": 2, "dims": [1, 1], "maps": []})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", "check", "--rep", rep)
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    assert "one dimension per vertex required" in err


def test_verify_unknown_suite_lists_every_suite(capsys):
    from torsion_lab.suites import SUITES
    code, out, err = run_cli(capsys, "--json", "verify", "no-such-suite")
    assert code == 2 and not out
    assert "unknown suite 'no-such-suite'" in err
    for name in SUITES:
        assert repr(name) in err


def test_verify_suite_exit_code(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "morphisms")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_verify_mccoy_seeded(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "mccoy", "--seed", "7")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["instances"] == 2500 and result["passed"]


def test_input_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "check", "--module", '{"ring":{"kind":"Z"}}')
    assert code == 2
    assert "missing" in err


def test_unknown_field_rejected(capsys):
    bad = '{"ring":{"kind":"Z"},"generators":1,"relations":[[8]],"extra":1}'
    code, _, err = run_cli(capsys, "check", "--module", bad)
    assert code == 2
    assert "unknown" in err


def test_unsupported_ring_exit_code(capsys):
    payload = ('{"ring":{"kind":"BiPolyMonomialQuot","p":5,"rels":["xy"]},'
               '"ideal":["x+y"]}')
    code, _, err = run_cli(capsys, "hom-conormal", payload)
    assert code == 3
    assert "unsupported" in err.lower()


def test_non_monomial_ideal_generator_is_refused_where_the_ideal_is_built(capsys):
    payload = ('{"ring":{"kind":"BiPolyMonomialQuot","p":5,"rels":["xy"]},'
               '"ideal":["x+y"],"d":"x"}')
    code, out, err = run_cli(capsys, "radical-lemma", payload)
    assert code == 3 and out == ""
    assert "generator y+x is not a monomial" in err


@pytest.mark.parametrize("command, field, text", [
    ("radical-lemma", "d", "-"),
    ("radical-lemma", "d", "x-"),
    ("radical-lemma", "d", "x--y"),
    ("hom-conormal", "ideal", "+"),
    ("hom-conormal", "ideal", "x+-y"),
    ("hom-conormal", "ideal", ""),
    # a space inside a term once joined its digits: x^20, 23 = 3 and 10x = 0 over F_5
    ("radical-lemma", "ideal", "x^2 0"),
    ("radical-lemma", "d", "2 3"),
    ("hom-conormal", "ideal", "1 0x"),
])
def test_stray_signs_in_bivariate_elements_are_refused(capsys, command, field, text):
    payload = {"ring": {"kind": "BiPolyMonomialQuot", "p": 5, "rels": ["xy"]}, "ideal": ["x"]}
    if command == "radical-lemma":
        payload["d"] = "x"
    payload[field] = text if field == "d" else [text]
    code, out, err = run_cli(capsys, command, json.dumps(payload))
    assert code == 2 and out == ""
    assert f"malformed bivariate element {text!r}" in err


def test_bivariate_ring_of_characteristic_zero_is_refused(capsys):
    # p is checked before the relation loop reduces coefficients mod p
    payload = {"ring": {"kind": "BiPolyMonomialQuot", "p": 0, "rels": ["x^2"]},
               "ideal": ["x"], "d": "x"}
    code, out, err = run_cli(capsys, "radical-lemma", json.dumps(payload))
    assert code == 2 and out == ""
    assert "needs a prime characteristic, got 0" in err


def test_unsplittable_cofactor_exits_3_quickly(capsys):
    mod = json.dumps({"ring": {"kind": "Z"}, "generators": 1,
                      "relations": [[str(2 ** 128 + 1)]]})
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "ass", "--module", mod)
    assert time.perf_counter() - start < 10
    assert code == 3
    assert str(2 ** 128 + 1) in err


def test_torsion_parts_of_elementary_2_group_rank_8(capsys):
    mod = json.dumps({"ring": {"kind": "Z"}, "generators": 8,
                      "relations": [[2 if i == j else 0 for j in range(8)]
                                    for i in range(8)]})
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--json", "torsion-parts", "--module", mod)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["result"]["count"] == 2


def test_torsion_parts_bytes_of_elementary_2_group_rank_8(capsys):
    def compact(value):
        return json.dumps(value, separators=(",", ":"))

    doubled = compact([[2 * (i == j) for j in range(8)] for i in range(8)])
    identity = compact([[int(i == j) for j in range(8)] for i in range(8)])
    module = '{"generators":8,"relations":' + doubled + ',"ring":{"kind":"Z"}}'
    want = ('{"command":"torsion-parts","options":{"json_output":true,"max_dim":3,'
            '"max_order":200,"no_prune":false,"seed":0},"payload":' + module
            + ',"result":{"count":2,"object":' + module
            + ',"parts":[{"embedding":' + doubled + ',"module":"0","order":1},'
            + '{"embedding":' + identity + ',"module":"' + " + ".join(["Z/2"] * 8)
            + '","order":256}],"pruned":true},"tool":"torsim"}\n')
    code, out, _ = run_cli(capsys, "--json", "torsion-parts", "--module", module)
    assert code == 0
    assert out == want


def test_zero_object_input_error(capsys):
    zero = '{"ring":{"kind":"Z"},"generators":0,"relations":[]}'
    code, _, _ = run_cli(capsys, "check", "--module", zero)
    assert code == 2


def test_determinism_byte_identical(capsys):
    args = ["--json", "verify", "mccoy", "--seed", "3"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "--json", "torsion-parts", "--module", Z6)
    _, out4, _ = run_cli(capsys, "--json", "torsion-parts", "--module", Z6)
    assert out3 == out4


def test_verify_report_repeats_byte_identical(capsys):
    args = ["--json", "verify", "localisation-invariance", "--max-order", "16"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_replay_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "--json", "--out", str(out_path),
                         "hom-conormal", COUNTEREXAMPLE)
    assert code == 0
    stored = json.loads(out_path.read_text())
    assert stored["command"] == "hom-conormal"
    code2, out2, _ = run_cli(capsys, "--json", "replay", str(out_path))
    assert code2 == 0
    assert json.loads(out2)["result"]["match"] is True


def test_replay_detects_tampering(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    run_cli(capsys, "--json", "--out", str(out_path), "mccoy", "rank",
            '{"ring":{"kind":"IntegersMod","n":4},"matrix":[[2]]}')
    stored = json.loads(out_path.read_text())
    stored["result"]["mccoy_rank"] = 1
    out_path.write_text(json.dumps(stored))
    code, _, _ = run_cli(capsys, "--json", "replay", str(out_path))
    assert code == 1


E2_RANK_6 = json.dumps({"ring": {"kind": "Z"}, "generators": 6,
                        "relations": [[2 if i == j else 0 for j in range(6)] for i in range(6)]})


@pytest.mark.parametrize("tamper,want", [(False, 0), (True, 1)])
def test_closed_stdout_keeps_the_exit_code_and_the_out_file(tmp_path, capsys, tamper, want):
    # stdout is a pipe whose reader has gone, so every write to it raises
    # BrokenPipeError: no traceback, the decided exit code, and a full --out
    args = ["--json", "torsion-parts", "--module", E2_RANK_6]
    if tamper:
        stored = tmp_path / "stored.json"
        run_cli(capsys, "--out", str(stored), *args)
        report = json.loads(stored.read_text())
        report["result"]["tampered"] = True
        stored.write_text(json.dumps(report))
        args = ["--json", "replay", str(stored)]
    _, full, _ = run_cli(capsys, *args)
    out_path = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from torsion_lab.cli import main; "
                                   "sys.exit(main())", "--out", str(out_path), *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == want
    assert out_path.read_text(encoding="utf-8") == full


ASS_PAYLOAD = {"ring": {"kind": "Z"}, "generators": 1, "relations": [[12]]}


@pytest.mark.parametrize("content,message", [
    ("5", "must hold a JSON object"),
    (json.dumps({"command": ["check"], "payload": {}, "options": {}, "result": {}}),
     "'command' must be a string"),
    (json.dumps({"command": "ass", "payload": ASS_PAYLOAD, "options": ["a"], "result": {}}),
     "'options' must be a JSON object"),
    (json.dumps({"command": "ass", "payload": 5, "options": {}, "result": {}}),
     "'payload' must be a JSON object"),
    (None, "cannot read the report file"),
    ("not json", "not valid JSON"),
    (json.dumps({"command": "verify", "payload": {"suite": "mccoy"},
                 "options": {"mccoy_instances": "x"}, "result": {}}),
     "unknown option 'mccoy_instances'"),
    (json.dumps({"command": "verify", "payload": {"suite": "ass-singleton"},
                 "options": {"max_order": "12"}, "result": {}}),
     "option 'max_order' must be an integer"),
    (json.dumps({"command": "verify", "payload": {"suite": "ass-singleton"},
                 "options": {"max_order": True}, "result": {}}),
     "option 'max_order' must be an integer"),
    (json.dumps({"command": "ass", "payload": ASS_PAYLOAD,
                 "options": {"no_prune": 0}, "result": {}}),
     "option 'no_prune' must be a boolean"),
    (json.dumps({"command": "check", "payload": ASS_PAYLOAD,
                 "options": {"method": "fast"}, "result": {}}),
     "option 'method' must be one of"),
])
def test_replay_refuses_malformed_report(tmp_path, capsys, content, message):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    code, _, err = run_cli(capsys, "replay", str(path))
    assert code == 2
    assert message in err


def test_replay_accepts_every_written_option(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "--json", "--out", str(out_path), "--no-prune",
                         "check", "--method", "brute-force", "--module", json.dumps(ASS_PAYLOAD))
    assert code == 0
    assert sorted(json.loads(out_path.read_text())["options"]) == [
        "json_output", "max_dim", "max_order", "method", "no_prune", "seed"]
    code, out, _ = run_cli(capsys, "--json", "replay", str(out_path))
    assert code == 0 and json.loads(out)["result"]["match"] is True


@pytest.mark.parametrize("ring", [{"kind": "IntegersMod", "n": 20_000_000},
                                  {"kind": "PrimeField", "p": 10_000_019}])
def test_oversized_nullvector_search_is_refused_at_once(capsys, ring):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "mccoy", "nullvector",
                           json.dumps({"ring": ring, "matrix": [[3]]}))
    assert code == 2 and "too large" in err
    assert time.perf_counter() - start < 1.0


def _z12_matrix(size):
    return json.dumps({"ring": {"kind": "IntegersMod", "n": 12},
                       "matrix": [[(3 * i + 5 * j) % 12 for j in range(size)]
                                  for i in range(size)]})


def test_mccoy_rank_past_the_minor_cap_is_refused_before_any_minor(capsys, monkeypatch):
    import torsion_lab.mccoy as mc

    def no_minors(a, order):
        raise AssertionError("a minor was listed")

    monkeypatch.setattr(mc, "minors", no_minors)
    # sum_r C(12, r)^2 = C(24, 12) minors, orders 0 to 12
    code, out, err = run_cli(capsys, "mccoy", "rank", _z12_matrix(12))
    assert code == 2 and out == ""
    assert "2704156 minors" in err


def test_mccoy_rank_under_the_minor_cap_is_answered(capsys, monkeypatch):
    import torsion_lab.mccoy as mc

    # C(22, 11) = 705,432 minors fit under the cap; skip listing them
    monkeypatch.setattr(mc, "minors", lambda a, order: [])
    code, out, _ = run_cli(capsys, "--json", "mccoy", "rank", _z12_matrix(11))
    assert code == 0 and len(json.loads(out)["result"]["profile"]) == 12


RING_SAMPLES = [
    ({"kind": "Z"}, 2, 2),
    ({"kind": "IntegersMod", "n": 12}, 2, 2),
    ({"kind": "PrimeField", "p": 5}, 2, 2),
    ({"kind": "UniPoly", "p": 3}, [0, 1], [0, 1]),
    ({"kind": "UniPolyQuot", "p": 3, "modulus": [0, 0, 1]}, [0, 1], [0, 1]),
    ({"kind": "BiPolyMonomialQuot", "p": 5, "rels": ["xy"]}, "x", "x"),
]


@pytest.mark.parametrize("ring,gen,d", RING_SAMPLES)
def test_boolean_ring_constant_is_input_error(capsys, ring, gen, d):
    code, _, _ = run_cli(capsys, "radical-lemma", json.dumps({"ring": ring, "ideal": [gen], "d": d}))
    assert code == 0
    for payload in ({"ring": ring, "ideal": [gen], "d": True},
                    {"ring": ring, "ideal": [True], "d": d}):
        code, _, err = run_cli(capsys, "radical-lemma", json.dumps(payload))
        assert code == 2, payload
        assert "boolean" in err


def test_human_output_contains_verdict(capsys):
    code, out, _ = run_cli(capsys, "check", "--module", Z8)
    assert code == 0
    assert "verdict: true" in out


def test_big_integers_round_trip(capsys):
    big = str(2 ** 80)
    mod = json.dumps({"ring": {"kind": "Z"}, "generators": 1, "relations": [[big]]})
    code, out, _ = run_cli(capsys, "--json", "ass", "--module", mod)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["associated_primes"] == [2]


@pytest.fixture
def int_string_limit():
    """The interpreter's default limit on int <-> decimal string conversion,
    whatever the environment set; int() and str() past it raise ValueError."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("where", ["decimal string", "JSON number", "report file"])
def test_integer_past_the_int_string_limit_is_an_input_error(tmp_path, capsys,
                                                             int_string_limit, where):
    digits = "7" * (int_string_limit + 700)
    entry = f'"{digits}"' if where == "decimal string" else digits
    module = '{"ring":{"kind":"Z"},"generators":1,"relations":[[%s]]}' % entry
    if where == "report file":
        path = tmp_path / "report.json"
        path.write_text('{"command":"check","payload":%s,"options":{},"result":{}}' % module)
        args = ("replay", str(path))
    else:
        args = ("check", "--module", module)
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == "" and "cannot be read" in err


def test_result_integer_past_the_int_string_limit_is_an_input_error(capsys, int_string_limit):
    # Z/3^6000 + Z/3^6001 (2,863 digits each) is its own cogenerated radical for
    # the source Z/2, and its order 3^12001 has 5,727 digits
    obj = {"ring": {"kind": "Z"}, "generators": 2,
           "relations": [[str(3 ** 6000), 0], [0, str(3 ** 6001)]]}
    source = {"ring": {"kind": "Z"}, "generators": 1, "relations": [[2]]}
    payload = json.dumps({"mode": "cogenerated", "object": obj, "sources": [source]})
    code, out, err = run_cli(capsys, "--json", "radical", payload)
    assert code == 2 and out == "" and "cannot be written" in err


# Z^2 / diag(2^8000, 3^5000) (entries of 2,409 and 2,386 digits) is cyclic: its
# one invariant factor has 4,795 digits, which the module's description writes
_BIG_MODULE = {"ring": {"kind": "Z"}, "generators": 2,
               "relations": [[str(2 ** 8000), 0], [0, str(3 ** 5000)]]}
# over Z the order-2 minor of diag(3^6000, 7^3000) has 5,399 digits
_BIG_MATRIX = {"ring": {"kind": "Z"}, "matrix": [[str(3 ** 6000), "0"], ["0", str(7 ** 3000)]]}


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
@pytest.mark.parametrize("args", [("ass", "--module", json.dumps(_BIG_MODULE)),
                                  ("mccoy", "rank", json.dumps(_BIG_MATRIX))])
def test_written_integer_past_the_int_string_limit_is_an_input_error(
        capsys, int_string_limit, json_flag, args):
    code, out, err = run_cli(capsys, *json_flag, *args)
    assert code == 2 and out == "" and "cannot be written" in err


def test_ring_element_past_the_int_string_limit_is_refused(int_string_limit):
    from torsion_lab.errors import InputError
    from torsion_lab.rings import Ring, RingElem
    big = RingElem(Ring.integers(), 3 ** 6000 * 7 ** 3000)
    for write in (str, RingElem.sort_key):
        with pytest.raises(InputError, match="cannot be written"):
            write(big)
    assert str(RingElem(Ring.integers(), -12)) == "-12"


def test_unwritable_out_path_is_an_input_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "--json", "--out", str(out_path), "check", "--module", Z8)
    assert code == 2 and out == "" and "cannot write the report file" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag,obj,method", [
    ("--module", Z6, "single-vertex-criterion"),
    ("--rep", P1, "ass-criterion"),
])
def test_check_method_for_other_object_kind_is_input_error(capsys, flag, obj, method):
    code, _, err = run_cli(capsys, "check", "--method", method, flag, obj)
    assert code == 2
    assert "applies to" in err


def _replaced(text, path, value):
    obj = json.loads(text)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(obj)


@pytest.mark.parametrize("args", [
    ("check", "--rep", _replaced(P1, ["dims"], 5)),
    ("check", "--rep", _replaced(P1, ["quiver", "arrows"], 5)),
    ("check", "--rep", _replaced(P1, ["maps"], [[1]])),
    ("radical", json.dumps({"mode": "generated", "sources": 5, "object": json.loads(Z8)})),
])
def test_malformed_payload_shapes_are_input_errors(capsys, args):
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "must be an array" in err


@pytest.mark.parametrize("payload", [
    '{"ring":{"kind":"Z"},"ideal":[0],"d":3}',
    '{"ring":{"kind":"Z"},"ideal":[0],"d":0}',
    '{"ring":{"kind":"UniPoly","p":3},"ideal":[[0]],"d":[0,1]}',
])
def test_radical_lemma_refuses_zero_ideal(capsys, payload):
    code, _, err = run_cli(capsys, "radical-lemma", payload)
    assert code == 2
    assert "non-zero ideal" in err


def _readme_commands():
    """argv lists of the README's `torsim` examples that carry a JSON payload."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    out = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("torsim ") and "{" in line:
            out.append(shlex.split(line)[1:])
    return out


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


README_COMMANDS = _readme_commands()
MUTATIONS = [(argv, pos, path)
             for argv in README_COMMANDS
             for pos, arg in enumerate(argv) if arg.startswith("{")
             for path in _json_paths(json.loads(arg))]
WRONG_TYPED = [7, "x", [], [[1]], {}, None, True]


def test_readme_examples_found():
    assert len(README_COMMANDS) >= 8
    assert len(MUTATIONS) > 50


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutation=st.sampled_from(MUTATIONS), value=st.sampled_from(WRONG_TYPED))
def test_wrong_typed_payload_node_never_crashes(mutation, value):
    argv, pos, path = mutation
    payload = _replaced(argv[pos], path, value) if path else json.dumps(value)
    mutated = argv[:pos] + [payload] + argv[pos + 1:]
    assert main(["--json"] + mutated) in (0, 2, 3), mutated
