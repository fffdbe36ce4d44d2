"""Command-line surface: JSON in, deterministic reports out.

Exit codes: 0 verdict delivered, 1 property violation found, 2 input error,
3 unsupported ring operation or exhausted work budget; a reader that closes
stdout early changes none of them.  `--json` reports are themselves valid
input for the `replay` command, which re-runs the embedded job and compares
results.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# each command imports the layers it reaches, so start-up pays for no other
from . import jsonio as io
from .errors import (ContradictionError, InputError, UnsupportedRingError,
                     WorkBudgetError)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3

CHECK_METHODS = ("auto", "brute-force", "ass-criterion", "single-vertex-criterion")
# the options `main` writes into every report, with their types (bool is not an int here)
OPTION_TYPES = {"seed": int, "max_order": int, "max_dim": int,
                "json_output": bool, "no_prune": bool}


def _load_payload(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"payload is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number past the interpreter's int-string limit
        raise InputError(f"payload cannot be read: {exc}") from None


def _load_report(path: str) -> dict:
    """The report a `replay` re-runs, refused unless it has the shape `--out` writes."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read the report file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"report file is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number past the interpreter's int-string limit
        raise InputError(f"report file cannot be read: {exc}") from None
    if not isinstance(stored, dict):
        raise InputError("report file must hold a JSON object")
    for key in ("command", "payload", "options", "result"):
        if key not in stored:
            raise InputError(f"report file is missing the {key!r} field")
    if not isinstance(stored["command"], str):
        raise InputError("report 'command' must be a string")
    for key in ("payload", "options"):
        if not isinstance(stored[key], dict):
            raise InputError(f"report {key!r} must be a JSON object")
    for key, value in stored["options"].items():
        if key == "method":
            if value not in CHECK_METHODS:
                raise InputError(f"report option 'method' must be one of {list(CHECK_METHODS)}")
        elif key not in OPTION_TYPES:
            raise InputError(f"report has the unknown option {key!r}")
        elif type(value) is not OPTION_TYPES[key]:
            raise InputError(f"report option {key!r} must be "
                             f"{'an integer' if OPTION_TYPES[key] is int else 'a boolean'}")
    return stored


def _sub_to_json(w) -> dict:
    """A subrepresentation (it has per-vertex spaces) or a submodule."""
    if hasattr(w, "spaces"):
        return {
            "dims": list(w.dims()),
            "spaces": [[list(r) for r in sp.rows] for sp in w.spaces],
        }
    # report the canonical lattice basis: it generates the same submodule and
    # is independent of how the subobject was constructed
    basis = w.lattice.basis
    return {
        "order": io.encode_int(w.order()) if w.ambient.is_finite() else None,
        "module": w.as_module().describe(),
        "embedding": [[io.encode_int(col[i]) for col in basis]
                      for i in range(w.ambient.gens)],
    }


def _parse_object(payload: dict):
    """(handle, object, canonical payload) from a module or representation payload."""
    from . import engine as eng
    if not isinstance(payload, dict):
        raise InputError("object payload must be a JSON object")
    if "quiver" in payload:
        rep = io.parse_rep(payload)
        handle = eng.QuiverHandle(rep.quiver, rep.p)
        return handle, rep, io.rep_to_json(rep)
    module = io.parse_module(payload)
    handle = eng.AbelianHandle(module.ring)
    return handle, module, io.module_to_json(module)


# ---------------------------------------------------------------------------
# command implementations: payload dict -> result dict
# ---------------------------------------------------------------------------


def cmd_check(payload: dict, options: dict) -> dict:
    from . import engine as eng
    handle, obj, canonical = _parse_object(payload)
    report = eng.is_torsion_simple(handle, obj, method=options.get("method", "auto"),
                                   prune=not options.get("no_prune", False))
    return {
        "object": canonical,
        "verdict": report.verdict,
        "method": report.method,
        "type": list(report.type_tag) if report.type_tag else None,
        "witness": _sub_to_json(report.witness) if report.witness is not None else None,
    }


def cmd_torsion_parts(payload: dict, options: dict) -> dict:
    from . import engine as eng
    handle, obj, canonical = _parse_object(payload)
    parts = eng.torsion_parts(handle, obj, prune=not options.get("no_prune", False))
    return {
        "object": canonical,
        "count": len(parts),
        "pruned": parts.pruned,
        "parts": [_sub_to_json(w) for w in parts.parts],
    }


def cmd_ass(payload: dict, options: dict) -> dict:
    from . import abelian as ab
    module = io.parse_module(payload)
    primes = ab.associated_primes(module)
    return {
        "object": io.module_to_json(module),
        "module": module.describe(),
        "associated_primes": [io.encode_int(p) for p in primes.primes],
        "includes_zero_ideal": primes.includes_zero,
    }


def cmd_radical(payload: dict, options: dict) -> dict:
    from . import engine as eng
    io._require_keys(payload, {"mode", "sources", "object"}, set(), "radical payload")
    mode = payload["mode"]
    if mode not in ("generated", "cogenerated"):
        raise InputError("mode must be 'generated' or 'cogenerated'")
    handle, obj, canonical = _parse_object(payload["object"])
    sources = []
    for src in io.parse_array(payload["sources"], "sources"):
        shandle, sobj, _ = _parse_object(src)
        if type(shandle) is not type(handle):
            raise InputError("sources and object must live in the same category")
        sources.append(sobj)
    if mode == "generated":
        t = eng.torsion_radical_generated(handle, sources, obj)
        quotient_obj, _ = handle.quotient(obj, t)
        return {
            "mode": mode,
            "object": canonical,
            "torsion_radical": _sub_to_json(t),
            "torsionfree_quotient": handle.describe(quotient_obj),
        }
    t, coradical = eng.torsionfree_coradical_cogenerated(handle, sources, obj)
    return {
        "mode": mode,
        "object": canonical,
        "torsion_radical": _sub_to_json(t),
        "torsionfree_coradical": handle.describe(coradical),
    }


def cmd_mccoy_rank(payload: dict, options: dict) -> dict:
    from . import mccoy as mc
    io._require_keys(payload, {"ring", "matrix"}, set(), "mccoy payload")
    ring = io.parse_ring(payload["ring"])
    mat = io.parse_matrix(ring, payload["matrix"])
    rank, steps = mc.mccoy_rank(mat)
    return {
        "ring": io.ring_to_json(ring),
        "rows": mat.rows,
        "cols": mat.cols,
        "mccoy_rank": rank,
        "profile": steps,
    }


def cmd_mccoy_nullvector(payload: dict, options: dict) -> dict:
    from . import mccoy as mc
    io._require_keys(payload, {"ring", "matrix"}, {"mode"}, "mccoy payload")
    ring = io.parse_ring(payload["ring"])
    mat = io.parse_matrix(ring, payload["matrix"])
    mode = payload.get("mode", "both")
    if mode not in ("both", "theorem", "exhaustive"):
        raise InputError("mode must be 'both', 'theorem' or 'exhaustive'")
    result: dict = {"ring": io.ring_to_json(ring), "rows": mat.rows, "cols": mat.cols}
    theorem = None
    exhaustive_found = None
    if mode in ("both", "theorem"):
        theorem = mc.has_nullvector_theorem(mat)
        result["theorem_says_nullvector"] = theorem
    if mode == "exhaustive" or (mode == "both" and ring.is_finite()):
        vec = mc.nullvector_exhaustive(mat)
        exhaustive_found = vec is not None
        result["nullvector"] = [str(e) for e in vec] if vec else None
        result["exhaustive_says_nullvector"] = exhaustive_found
    if theorem is not None and exhaustive_found is not None:
        result["agree"] = theorem == exhaustive_found
        if not result["agree"]:
            raise ContradictionError(
                "theorem-mode and exhaustive nullvector verdicts disagree")
    return result


def cmd_hom_conormal(payload: dict, options: dict) -> dict:
    from . import mccoy as mc
    io._require_keys(payload, {"ring", "ideal"}, set(), "hom-conormal payload")
    ring = io.parse_ring(payload["ring"])
    ideal = io.parse_ideal(ring, payload["ideal"])
    return mc.hom_I_to_quotient(ring, ideal)


def cmd_radical_lemma(payload: dict, options: dict) -> dict:
    from . import mccoy as mc
    io._require_keys(payload, {"ring", "ideal", "d"}, set(), "radical-lemma payload")
    ring = io.parse_ring(payload["ring"])
    ideal = io.parse_ideal(ring, payload["ideal"])
    d = io.parse_element(ring, payload["d"])
    return mc.check_radical_lemma(ring, ideal, d)


def cmd_verify(payload: dict, options: dict) -> dict:
    from . import suites as su
    suite = payload.get("suite")
    result = su.run_suite(suite, options)
    return result.as_dict()


COMMANDS = {
    "check": cmd_check,
    "torsion-parts": cmd_torsion_parts,
    "ass": cmd_ass,
    "radical": cmd_radical,
    "mccoy-rank": cmd_mccoy_rank,
    "mccoy-nullvector": cmd_mccoy_nullvector,
    "hom-conormal": cmd_hom_conormal,
    "radical-lemma": cmd_radical_lemma,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _human_lines(command: str, result: dict) -> list[str]:
    lines = [f"torsim {command}"]
    if command == "verify":
        lines.append(f"suite: {result['suite']}")
        lines.append(f"statement: {result['statement']}")
        lines.append(f"instances: {result['instances']}")
        for failure in result["failures"][:20]:
            lines.append(f"FAIL: {failure}")
        lines.append("result: PASS" if result["passed"] else "result: FAIL")
        return lines

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}.{k}" if prefix else k, value[k])
        else:
            lines.append(f"{prefix}: {json.dumps(value, sort_keys=True)}")

    emit("", {k: v for k, v in result.items() if k != "object"})
    return lines


def _emit(report: dict, command: str, as_json: bool, out_path: str | None) -> None:
    """Write `--out`, then print.  A reader that closes stdout early (`| head`)
    costs the rest of the text only: stdout is pointed at os.devnull, so no
    later flush, at interpreter shutdown either, raises or prints."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(io.dumps_report(report) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write the report file: {exc}") from exc
    if as_json:
        text = io.dumps_report(report)
    else:
        text = "\n".join(_human_lines(command, report["result"]))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _run_command(command: str, payload: dict, options: dict) -> dict:
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    result = COMMANDS[command](payload, options)
    return {
        "tool": "torsim",
        "command": command,
        "payload": payload,
        "options": {k: options[k] for k in sorted(options)},
        "result": result,
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true",
                        default=d if suppress else False,
                        help="machine-readable output")
    parser.add_argument("--out", metavar="PATH",
                        default=d if suppress else None,
                        help="also write the JSON report here")
    parser.add_argument("--seed", type=int, default=d if suppress else 0)
    parser.add_argument("--max-order", type=int, default=d if suppress else 200)
    parser.add_argument("--max-dim", type=int, default=d if suppress else 3)
    parser.add_argument("--no-prune", action="store_true",
                        default=d if suppress else False,
                        help="list every subobject instead of a finite module's "
                             "sums of primary components")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsim",
        description="torsion-simplicity, torsion radicals, and the McCoy-rank "
                    "pipeline for exact module categories")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", parents=[common], help="decide torsion-simplicity")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--module", metavar="JSON")
    group.add_argument("--rep", metavar="JSON")
    p_check.add_argument("--method", default="auto", choices=CHECK_METHODS)

    p_parts = sub.add_parser("torsion-parts", parents=[common],
                             help="list all torsion parts")
    group = p_parts.add_mutually_exclusive_group(required=True)
    group.add_argument("--module", metavar="JSON")
    group.add_argument("--rep", metavar="JSON")

    p_ass = sub.add_parser("ass", parents=[common],
                           help="associated primes of a module")
    p_ass.add_argument("--module", metavar="JSON", required=True)

    p_rad = sub.add_parser("radical", parents=[common],
                           help="generated/cogenerated torsion radical")
    p_rad.add_argument("payload", metavar="JSON")

    p_mccoy = sub.add_parser("mccoy", parents=[common],
                             help="determinantal profile and nullvectors")
    mccoy_sub = p_mccoy.add_subparsers(dest="mccoy_command")
    for name in ("rank", "nullvector"):
        sp = mccoy_sub.add_parser(name, parents=[common])
        sp.add_argument("payload", metavar="JSON")

    p_hom = sub.add_parser("hom-conormal", parents=[common],
                           help="decide Hom_S(I, S/I) != 0")
    p_hom.add_argument("payload", metavar="JSON")

    p_rl = sub.add_parser("radical-lemma", parents=[common],
                          help="check d*I in I^2 implies d in rad(I)")
    p_rl.add_argument("payload", metavar="JSON")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a named verification suite")
    p_verify.add_argument("suite", help="suite name; an unknown name is refused "
                                        "with the list of suites")

    p_replay = sub.add_parser("replay", parents=[common],
                              help="re-run a JSON report and compare")
    p_replay.add_argument("report", metavar="PATH")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return EXIT_INPUT
    options = {
        "seed": args.seed,
        "max_order": args.max_order,
        "max_dim": args.max_dim,
        "json_output": bool(args.json),
        "no_prune": bool(args.no_prune),
    }
    try:
        if args.command == "replay":
            stored = _load_report(args.report)
            fresh = _run_command(stored["command"], stored["payload"], stored["options"])
            match = fresh["result"] == stored["result"]
            report = {
                "tool": "torsim",
                "command": "replay",
                "payload": {"command": stored["command"]},
                "options": stored["options"],
                "result": {"match": match},
            }
            _emit(report, "replay", args.json, args.out)
            return EXIT_OK if match else EXIT_VIOLATION

        name = args.command
        if name == "mccoy":
            if not args.mccoy_command:
                raise InputError("mccoy needs a subcommand: rank or nullvector")
            name = f"mccoy-{args.mccoy_command}"
        if name == "check":
            options["method"] = args.method
        if name == "verify":
            payload = {"suite": args.suite}
        else:
            given = [getattr(args, key, None) for key in ("payload", "module", "rep")]
            payload = _load_payload(next(text for text in given if text is not None))
        report = _run_command(name, payload, options)
        _emit(report, args.command, args.json, args.out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedRingError as exc:
        print(f"unsupported ring operation: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except WorkBudgetError as exc:
        print(f"work budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ContradictionError as exc:
        print(f"verified statement violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION

    if args.command == "verify" and not report["result"]["passed"]:
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
