"""Report-byte corpus: every stored command still prints the same bytes.

`tests/data/report_bytes.jsonl` holds one JSON object per line with the argv
of a `torsim` command, its exit code and its stdout.  The entries cover the
README examples, McCoy, conormal and radical-lemma payloads over every ring
kind (refusals included), `check`/`torsion-parts`/`ass`/`radical` on modules
and quiver representations, 56 `--json radical` runs (generated and
cogenerated) on random representations of the A2, A3, sink and source quivers
over F_2 and F_3 that reach the subspace intersection and the quiver pull-back
and composition of subobjects, brute-force `check` (pruned and `--no-prune`)
and `--no-prune torsion-parts` on random representations of the source and
triangle quivers over F_2 and F_3, `check` (auto, brute-force, ass-criterion),
`torsion-parts` and `--no-prune torsion-parts` on modules with three primes,
dense presentations over Z and Z/12 and the infinite Z + Z/6, cogenerated
`--json radical` runs on infinite modules over Z with no source and with
zero, finite and infinite sources, `check` by `auto` and by each criterion
on representations outside the enumeration bounds (over F_7, or with a
dimension of 6), and four `verify` suites.  A refactor
that claims "same bytes from less code" must leave every entry unchanged.

Regenerate the stored exit codes and stdout (argv lists unchanged) with
`PYTHONPATH=src python3 tests/test_report_bytes.py`, and only in a change that
says which bytes move and why.
"""
import contextlib
import io
import json
from pathlib import Path

from torsion_lab.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "report_bytes.jsonl"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _entries():
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def test_report_bytes_match_corpus():
    entries = _entries()
    assert len(entries) >= 200
    changed = [entry["argv"] for entry in entries
               if _run(entry["argv"]) != (entry["exit"], entry["stdout"])]
    assert not changed, f"{len(changed)} commands changed output, first: {changed[:3]}"


if __name__ == "__main__":
    lines = []
    for entry in _entries():
        code, stdout = _run(entry["argv"])
        lines.append(json.dumps({"argv": entry["argv"], "exit": code, "stdout": stdout},
                                sort_keys=True))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
