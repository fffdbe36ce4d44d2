"""The four workloads: inputs built from a seed, one timed call per item, and
the check of each output against the independent oracles.

Imported only by worker processes, after `src/` is on the import path.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations, product

import common
import oracles
from torsion_lab import abelian as ab
from torsion_lab import engine as eng
from torsion_lab import quiver as qv
from torsion_lab.rings import Ring

# full size, then the reduced size used by the benchmark's own tests
GABRIEL_MAX_ORDER = {False: 48, True: 8}
CATALOGUE_MAX_ORDER = {False: 127, True: 16}
MULTI_PRIME_STRATA = {False: 12, True: 2}
QUIVER_MAX_DIM = {False: 3, True: 2}

SOURCE_SETS = [v for r in range(4) for v in combinations((2, 3, 5), r)]

# candidate multi-prime groups for subgroup-lattices: 2-3 distinct primes,
# p-parts of exponent <= 2 and rank up to these bounds, subgroup count in the band
SAMPLE_PRIME_SETS = ((2, 3), (2, 5), (2, 7), (3, 5), (2, 3, 5), (2, 3, 7))
SAMPLE_MAX_RANK = {2: 5, 3: 4, 5: 3, 7: 3}
SAMPLE_SUBGROUP_BAND = (150, 1200)


class Workload:
    """Items plus the timed operation and its check.

    `count_ok` compares the item count with its closed form; `label` names an
    item as (text, group order or 0) for the per-item report.
    """

    def __init__(self, items, run, check, count_ok: bool, label):
        self.items = items
        self.run = run
        self.check = check
        self.count_ok = count_ok
        self.label = label


def build(name: str, seed: int, quick: bool, run_dir: str, traced: bool) -> Workload:
    rng = random.Random(seed)
    if name == "gabriel-axioms":
        return _gabriel(rng, quick)
    if name == "subgroup-lattices":
        return _subgroups(rng, quick)
    if name == "quiver-reps":
        return _quiver(rng, quick)
    if name == "cli-requests":
        return _cli(rng, quick, run_dir, traced)
    raise ValueError(f"unknown workload {name!r}")


def _describe(orders) -> str:
    return " + ".join(f"Z/{q}" for q in orders) or "0"


# -- gabriel-axioms ----------------------------------------------------------


def _gabriel(rng: random.Random, quick: bool) -> Workload:
    max_order = GABRIEL_MAX_ORDER[quick]
    ring = Ring.integers()
    handle = eng.AbelianHandle(ring)
    items = []
    for n in range(1, max_order + 1):
        for orders in oracles.group_types(n):
            for v in SOURCE_SETS:
                module = ab.direct_sum_module(ring, list(orders))
                sources = [ab.cyclic_module(ring, p) for p in v]
                items.append((n, orders, v, module, sources))
    rng.shuffle(items)
    expected = sum(oracles.group_count(n) for n in range(1, max_order + 1)) * len(SOURCE_SETS)

    def run(item):
        _, _, _, module, sources = item
        radical = eng.torsion_radical_generated(handle, sources, module)
        axioms = eng.verify_torsion_pair_axioms(handle, sources, [module])
        return radical, axioms

    def check(item, out) -> bool:
        n, _, v, _, _ = item
        radical, axioms = out
        want = 1
        for p in v:
            want *= oracles.p_part(n, p)
        return (radical.order() == want and len(axioms) == 1
                and all(a.orthogonal and a.maximal and a.idempotent for a in axioms))

    def label(item):
        return f"{_describe(item[1])} V={list(item[2])}", item[0]

    return Workload(items, run, check, len(items) == expected, label)


# -- subgroup-lattices -------------------------------------------------------


def _capped_partitions(rank: int, cap: int = 2) -> list[tuple[int, ...]]:
    """Non-empty partitions with at most `rank` parts, each part <= cap."""
    out = []

    def rec(prefix: tuple, top: int):
        if prefix:
            out.append(prefix)
        if len(prefix) < rank:
            for part in range(top, 0, -1):
                rec(prefix + (part,), part)

    rec((), cap)
    return out


def sample_pool(min_order: int) -> list[tuple[int, tuple[int, ...]]]:
    """(cost proxy, orders) for every candidate multi-prime group, cheapest first.

    The proxy is the subgroup count times the number of cyclic factors, which
    tracks how much enumeration and stability testing a group costs.
    """
    pool = []
    for primes in SAMPLE_PRIME_SETS:
        for lams in product(*[_capped_partitions(SAMPLE_MAX_RANK[p]) for p in primes]):
            orders = tuple(p ** k for p, lam in zip(primes, lams) for k in lam)
            subs = oracles.subgroup_count(orders)
            lo, hi = SAMPLE_SUBGROUP_BAND
            if math.prod(orders) > min_order and lo <= subs <= hi:
                pool.append((subs * len(orders), orders))
    pool.sort()
    return pool


def multi_prime_groups(min_order: int, strata: int) -> list[tuple[int, ...]]:
    """The middle group of each of `strata` equal slices of the cost-sorted pool.

    The choice is fixed, not seeded: choosing these groups by seed moved the
    round time by about 12% between seeds, since their costs differ widely.
    """
    pool = sample_pool(min_order)
    size = len(pool) // strata
    return [pool[k * size + size // 2][1] for k in range(strata)]


def _subgroups(rng: random.Random, quick: bool) -> Workload:
    max_order = CATALOGUE_MAX_ORDER[quick]
    ring = Ring.integers()
    handle = eng.AbelianHandle(ring)
    groups = [orders for n in range(2, max_order + 1) for orders in oracles.group_types(n)]
    groups += multi_prime_groups(max_order, MULTI_PRIME_STRATA[quick])
    rng.shuffle(groups)
    items = [(math.prod(orders), orders, ab.direct_sum_module(ring, list(orders)))
             for orders in groups]
    expected = (sum(oracles.group_count(n) for n in range(2, max_order + 1))
                + MULTI_PRIME_STRATA[quick])

    def run(item):
        module = item[2]
        parts = eng.torsion_parts(handle, module)
        report = eng.is_torsion_simple(handle, module)
        return parts, report, ab.associated_primes(module)

    def check(item, out) -> bool:
        n = item[0]
        parts, report, ass = out
        primes = oracles.factor(n)
        full_parts = all(
            n % w.order() == 0
            and all(oracles.p_part(w.order(), p) in (1, p ** e) for p, e in primes.items())
            for w in parts.parts)
        return (len(parts) == 2 ** len(primes) and full_parts
                and report.verdict == oracles.is_prime_power(n)
                and ass.primes == tuple(sorted(primes)) and not ass.includes_zero)

    def label(item):
        return _describe(item[1]), item[0]

    return Workload(items, run, check, len(items) == expected, label)


# -- quiver-reps -------------------------------------------------------------


def _quiver(rng: random.Random, quick: bool) -> Workload:
    max_dim = QUIVER_MAX_DIM[quick]
    quiver = qv.a_n_quiver(2)
    handle = eng.QuiverHandle(quiver, 2)
    items = []
    for d1 in range(max_dim + 1):
        for d2 in range(max_dim + 1):
            for flat in product(range(2), repeat=d1 * d2):
                if d1 + d2 == 0:
                    continue
                mat = [[flat[i * d1 + j] for j in range(d1)] for i in range(d2)]
                items.append(((d1, d2), qv.QuiverRep(quiver, 2, (d1, d2), [mat])))
    rng.shuffle(items)

    def run(item):
        return eng.is_torsion_simple(handle, item[1], method="brute-force", prune=False)

    def check(item, out) -> bool:
        d1, d2 = item[0]
        return out.verdict == ((d1 == 0) != (d2 == 0))

    def label(item):
        return f"dims={list(item[0])} maps={item[1].maps}", 0

    return Workload(items, run, check, len(items) == oracles.a2_rep_count(max_dim), label)


# -- cli-requests ------------------------------------------------------------

CLI_COMMANDS = 43  # the mix below; the reduced size keeps one command per kind
CLI_KINDS = 13
CLI_MAIN = "import sys; from torsion_lab.cli import main; sys.exit(main())"
BIPOLY_XY = {"kind": "BiPolyMonomialQuot", "p": 5, "rels": ["xy"]}
CLI_VERIFY = (["injective-criterion"], ["morphisms"], ["ass-singleton", "--max-order", "40"],
              ["gabriel-split", "--max-order", "12"])


def _module_json(orders) -> dict:
    k = len(orders)
    rels = [[str(orders[i]) if i == j else 0 for j in range(k)] for i in range(k)]
    return {"ring": {"kind": "Z"}, "generators": k, "relations": rels}


def _random_group(rng: random.Random) -> tuple[int, ...]:
    """A group of order <= 40 and rank <= 3, so no command's cost depends on the seed much."""
    n = rng.randint(2, 40)
    return rng.choice([t for t in oracles.group_types(n) if len(t) <= 3])


def _random_rep(rng: random.Random, max_dim: int = 2):
    while True:
        d1, d2 = rng.randint(0, max_dim), rng.randint(0, max_dim)
        if d1 + d2:
            break
    mat = [[rng.randrange(2) for _ in range(d1)] for _ in range(d2)]
    payload = {"quiver": {"vertices": 2, "arrows": [[0, 1]]}, "p": 2,
               "dims": [d1, d2], "maps": [mat]}
    return payload, (d1 == 0) != (d2 == 0)


def _random_matrix(rng: random.Random, rows: int, cols: int, zero_divisors: bool):
    """A matrix over Z/n; with zero_divisors every entry is a multiple of a
    prime p | n, so n/p annihilates every minor and the McCoy rank is 0."""
    n = rng.choice((4, 6, 8, 9, 12))
    p = rng.choice(sorted(oracles.factor(n))) if zero_divisors else 1
    return n, [[p * rng.randrange(n // p) for _ in range(cols)] for _ in range(rows)]


def cli_commands(rng: random.Random, quick: bool, report_path: str) -> list[tuple]:
    """(argv, expectation) pairs; every expectation comes from the oracles."""
    cmds = []

    def add(args, kind, **want):
        cmds.append((["--json"] + args, dict(want, kind=kind)))

    for _ in range(2):
        p = oracles.next_prime(10 ** 6 + rng.randrange(10 ** 4))
        add(["check", "--module", json.dumps(_module_json([p]))], "check-module",
            verdict=True, order=p)
    for _ in range(3):
        orders = _random_group(rng)
        add(["check", "--module", json.dumps(_module_json(orders))], "check-module",
            verdict=oracles.is_prime_power(math.prod(orders)), order=math.prod(orders))
    for _ in range(3):
        rep, single = _random_rep(rng)
        add(["check", "--rep", json.dumps(rep)], "check-rep", verdict=single)
    for _ in range(3):
        orders = _random_group(rng)
        add(["torsion-parts", "--module", json.dumps(_module_json(orders))],
            "parts-module", order=math.prod(orders))
    for _ in range(2):
        rep, single = _random_rep(rng)
        add(["torsion-parts", "--rep", json.dumps(rep)], "parts-rep", single=single)
    for _ in range(4):
        p = oracles.next_prime(rng.randrange(100_003, 999_983))
        digits = rng.randint(16, 20)
        q = oracles.next_prime(rng.randrange(10 ** (digits - 1) // p + 1, 10 ** digits // p))
        add(["ass", "--module", json.dumps(_module_json([p * q]))], "ass", primes=sorted({p, q}))
    for _ in range(2):
        primes = rng.sample((2, 3, 5, 7, 11, 13, 101, 257, 65537, 1000003), 4)
        n = 1
        for p in primes:
            n *= p ** rng.randint(1, 3)
        add(["ass", "--module", json.dumps(_module_json([n]))], "ass", primes=sorted(primes))
    for mode in ("generated", "cogenerated"):
        for _ in range(3):
            orders = _random_group(rng)
            v = rng.choice(SOURCE_SETS[1:])
            payload = {"mode": mode, "object": _module_json(orders),
                       "sources": [_module_json([p]) for p in v]}
            n = math.prod(orders)
            inside = 1
            for p in v:
                inside *= oracles.p_part(n, p)
            add(["radical", json.dumps(payload)], "radical",
                order=inside if mode == "generated" else n // inside)
    for k in range(4):
        n, mat = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), k % 2 == 1)
        payload = {"ring": {"kind": "IntegersMod", "n": n}, "matrix": mat}
        add(["mccoy", "rank", json.dumps(payload)], "mccoy-rank",
            rank=oracles.mccoy_rank_mod(mat, n))
    for k in range(4):
        n, mat = _random_matrix(rng, 2, rng.randint(2, 3), k % 2 == 1)
        payload = {"ring": {"kind": "IntegersMod", "n": n}, "matrix": mat}
        add(["mccoy", "nullvector", json.dumps(payload)], "mccoy-nullvector",
            n=n, matrix=mat, exists=oracles.mccoy_rank_mod(mat, n) < len(mat[0]))
    add(["hom-conormal", json.dumps({"ring": BIPOLY_XY, "ideal": ["x"]})],
        "hom-conormal", nonzero=False)
    add(["hom-conormal", json.dumps({"ring": {"kind": "Z"}, "ideal": [rng.randint(2, 50)]})],
        "hom-conormal", nonzero=True)
    add(["radical-lemma", json.dumps({"ring": BIPOLY_XY, "ideal": ["x"], "d": "x+y"})],
        "radical-lemma", premise=True, conclusion=False)
    m = rng.randint(2, 50)
    rad_m = math.prod(oracles.factor(m))
    d = rng.choice((m * rng.randint(1, 5), rad_m * rng.randint(1, 5), rng.randint(1, 100)))
    add(["radical-lemma", json.dumps({"ring": {"kind": "Z"}, "ideal": [m], "d": d})],
        "radical-lemma", premise=d % m == 0, conclusion=d % rad_m == 0)
    for suite in CLI_VERIFY:
        add(["verify"] + suite, "verify")
    orders = _random_group(rng)
    add(["--out", report_path, "check", "--module", json.dumps(_module_json(orders))],
        "report", verdict=oracles.is_prime_power(math.prod(orders)), order=math.prod(orders))
    add(["replay", report_path], "replay")
    if quick:
        # the first command of every kind; the report still precedes its replay
        kinds = set()
        cmds = [c for c in cmds if not (c[1]["kind"] in kinds or kinds.add(c[1]["kind"]))]
    return cmds


def check_cli_output(want: dict, rc: int, stdout: str) -> bool:
    if rc != 0:
        return False
    result = json.loads(stdout)["result"]
    kind = want["kind"]
    if kind in ("check-module", "report"):
        ok = result["verdict"] == want["verdict"]
        if want["verdict"]:
            ok = ok and result["type"] == ["prime", next(iter(oracles.factor(want["order"])))]
        return ok
    if kind == "check-rep":
        return result["verdict"] == want["verdict"]
    if kind == "parts-module":
        n = want["order"]
        primes = oracles.factor(n)
        orders = [int(w["order"]) for w in result["parts"]]
        return (result["count"] == 2 ** len(primes) == len(orders)
                and all(oracles.p_part(o, p) in (1, p ** e)
                        for o in orders for p, e in primes.items()))
    if kind == "parts-rep":
        return result["count"] >= 2 and (result["count"] == 2) == want["single"]
    if kind == "ass":
        return ([int(p) for p in result["associated_primes"]] == want["primes"]
                and not result["includes_zero_ideal"])
    if kind == "radical":
        return int(result["torsion_radical"]["order"]) == want["order"]
    if kind == "mccoy-rank":
        return result["mccoy_rank"] == want["rank"]
    if kind == "mccoy-nullvector":
        vec = result["nullvector"]
        if vec is not None:
            vec = [int(e) for e in vec]
            if not any(vec) or any(oracles.apply_mod(want["matrix"], vec, want["n"])):
                return False
        return (result["agree"] and result["theorem_says_nullvector"] == want["exists"]
                and (vec is not None) == want["exists"])
    if kind == "hom-conormal":
        return result["hom_nonzero"] == want["nonzero"]
    if kind == "radical-lemma":
        return (result["premise_dI_in_I2"] == want["premise"]
                and result["conclusion_d_in_radical"] == want["conclusion"])
    if kind == "verify":
        return result["passed"] is True
    if kind == "replay":
        return result["match"] is True
    raise ValueError(f"unknown command kind {kind!r}")


def _cli(rng: random.Random, quick: bool, run_dir: str, traced: bool) -> Workload:
    report_path = os.path.join(run_dir, "replay-report.json")
    trace_dir = os.path.join(run_dir, "trace-cli-requests")
    items = [(i, argv, want) for i, (argv, want) in enumerate(cli_commands(rng, quick, report_path))]
    env = common.child_env()
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")

    def run(item):
        index, argv, _ = item
        if traced:
            cmd = [sys.executable, launcher, os.path.join(trace_dir, f"child-{index:03d}")]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN]
        proc = subprocess.run(cmd + argv, capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout

    def check(item, out) -> bool:
        return check_cli_output(item[2], *out)

    def label(item):
        index, argv, _ = item
        return f"#{index} {' '.join(argv[1:])[:70]}", 0

    return Workload(items, run, check, len(items) == (CLI_KINDS if quick else CLI_COMMANDS),
                    label)
