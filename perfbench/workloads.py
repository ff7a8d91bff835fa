"""The four benchmark workloads: seeded op lists, named references, ladders.

An op is one thing a user asks for: either a ``turancover`` CLI call (an argv
handed to ``turancover.cli.main``) or, where no subcommand exists, one call of
a public library function.  Every op carries the name of the reference its
answer is checked against and a nominal cost, the time it took at the seed
commit on a shared 2-vCPU machine.  The nominal costs only size the pass: a pass
holds the workload's menu up to ``--seconds`` of nominal work, and the
workloads with seeded inputs fill the rest of that budget with fresh draws.

Within one pass the ops are pairwise distinct, and no two ops check the same
graph or the same parameter point.  A cache kept across calls (such as the
library's ``lru_cache`` on star masks, or one a later change adds) therefore
cannot show a gain that a user making one CLI call never sees.

References are computed by this module, outside the timed region, from
closed forms or tables; none of them calls the library.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class Op:
    """One operation.  Exactly one of ``argv`` and ``call`` is set.

    ``call`` is (module, function, args) inside the ``turancover`` package;
    the function is looked up when the op runs, so a freshly imported or a
    traced library is used.
    """

    ref: str
    nominal_ms: float
    argv: tuple[str, ...] | None = None
    call: tuple[str, str, tuple] | None = None

    @property
    def label(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        mod, fn, args = self.call
        return f"{mod}.{fn}{args}"

    @property
    def asks_alpha(self) -> bool:
        """Whether a codegree-star op asks for the initial degree."""
        return (
            self.argv is not None
            and self.argv[0] == "codegree-star"
            and ("--alpha" in self.argv or "--verify-collapse" not in self.argv)
        )


@dataclass
class Outcome:
    """What one op returned: exit code and captured stdout for CLI ops,
    the return value for library ops, the exception name if one escaped."""

    code: int | None = None
    out: str = ""
    value: object = None
    error: str | None = None


# ---------------------------------------------------------------------------
# reference arithmetic (independent of the library)


def part_sizes(n: int, q: int) -> list[int]:
    base, extra = divmod(n, q)
    return [base + (1 if i < extra else 0) for i in range(q)]


def turan_number(n: int, q: int, r: int) -> int:
    """t_r(n, q): r-edges of the complete balanced q-partite r-graph on n."""
    e = [1] + [0] * r
    for size in part_sizes(n, q):
        for k in range(r, 0, -1):
            e[k] += size * e[k - 1]
    return e[r]


def count_independent(n: int, kill: list[tuple[int, int]], d: int) -> int:
    """d-subsets of [n] with no kill pair, counted as d-cliques of the
    complement graph (a different algorithm from the library's)."""
    if d == 0:
        return 1
    full = (1 << n) - 1
    comp = [full & ~(1 << v) for v in range(n)]
    for a, b in kill:
        comp[a - 1] &= ~(1 << (b - 1))
        comp[b - 1] &= ~(1 << (a - 1))

    def cliques(cand: int, k: int) -> int:
        if k == 1:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            total += cliques(cand & comp[v], k - 1)
        return total

    return cliques(full, d)


# ex(n, C4) for n = 1..10 (Clapham, Flockhart and Sheehan 1989; OEIS A006855).
EX_C4 = {1: 0, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 11, 9: 13, 10: 16}
# ex(n, K3, C4): the friendship graph's floor((n-1)/2) triangles; these small
# values were confirmed by the library's brute-force oracle at the seed commit.
EX_K3_C4 = {3: 1, 4: 1, 5: 2, 6: 2, 7: 3}


def _clique_size(spec: str) -> int | None:
    """s for K_s, and for K_ell_r(s,2), which forbids the same graphs."""
    if spec.startswith("K") and spec[1:].isdigit():
        return int(spec[1:])
    if spec.startswith("K_ell_r(") and spec.endswith(",2)"):
        return int(spec[len("K_ell_r(") : -3])
    return None


def ex_reference(forbid: str, n: int) -> tuple[int, str]:
    s = _clique_size(forbid)
    if s is not None:
        return turan_number(n, s - 1, 2), "Turán t_2(n,s-1)"
    if forbid.startswith("K_ell_r("):
        ell, r = (int(x) for x in forbid[len("K_ell_r(") : -1].split(","))
        return turan_number(n, ell - 1, r), "core-family t_r(n,ell-1)"
    if forbid == "C4":
        return EX_C4[n], "known ex(n,C4) table"
    if forbid == "P3":
        return n // 2, "known ex(n,P3) = floor(n/2)"
    raise KeyError(forbid)


def gen_ex_reference(target: str, forbid: str, n: int) -> tuple[int, str]:
    r, s = _clique_size(target), _clique_size(forbid)
    if r is not None and s is not None:
        return turan_number(n, s - 1, r), "Zykov t_r(n,s-1)"
    if (target, forbid) == ("P3", "K3"):
        value = max(a * comb(n - a, 2) + (n - a) * comb(a, 2) for a in range(n + 1))
        return value, "known ex(n,P3,K3) = max over K_{a,n-a}"
    if (target, forbid) == ("C4", "K3"):
        return max(comb(a, 2) * comb(n - a, 2) for a in range(n + 1)), "known ex(n,C4,K3) = max over K_{a,n-a}"
    if (target, forbid) == ("K3", "C4"):
        return EX_K3_C4[n], "known ex(n,K3,C4) table"
    raise KeyError((target, forbid))


def witness_degree(n: int, ell: int) -> int:
    """Degree of the counterexample witness: all differences for ell = 3,
    within-part differences of the balanced (ell-2)-partition otherwise."""
    if ell == 3:
        return 1 if n == 3 else comb(n, 2)
    return sum(comb(size, 2) for size in part_sizes(n, ell - 2))


# ---------------------------------------------------------------------------
# checking an outcome against its reference


def _report(outcome: Outcome) -> dict | None:
    if outcome.error is not None or outcome.code != 0:
        return None
    try:
        return json.loads(outcome.out)
    except ValueError:
        return None


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def _kill_pairs(argv: tuple[str, ...]) -> list[tuple[int, int]]:
    if "--kill" not in argv:
        return []
    pairs = []
    for tok in argv[argv.index("--kill") + 1 :]:
        if tok.startswith("--"):
            break
        a, b = tok.split(",")
        pairs.append((int(a), int(b)))
    return pairs


def check(op: Op, outcome: Outcome) -> bool:
    """Whether the op answered correctly.  A nonzero exit code (a scale-guard
    refusal included), an escaped exception or a wrong value all fail."""
    if op.call is not None:
        return outcome.error is None and outcome.value is True
    report = _report(outcome)
    if report is None:
        return False
    argv, res = op.argv, report["result"]
    cmd = argv[0]
    n = int(_flag(argv, "--n"))
    if "--oracle" in argv and cmd in ("ex", "gen-ex") and report["oracle"].get("match") is not True:
        return False
    if cmd == "verify-counterexample":
        ell = int(_flag(argv, "--ell"))
        bound = 3 * (comb(n, 3) - turan_number(n, ell - 1, 3))
        return (
            res["verdict"] == "counterexample confirmed"
            and res["in_DI"] is True
            and res["F_degree"] == witness_degree(n, ell)
            and res["D"] == bound
            and res["F_degree"] < bound
        )
    if cmd == "ex":
        return res["value"] == ex_reference(_flag(argv, "--forbid"), n)[0]
    if cmd == "gen-ex":
        return res["value"] == gen_ex_reference(_flag(argv, "--target"), _flag(argv, "--forbid"), n)[0]
    if cmd == "codegree-star":
        ell, r = int(_flag(argv, "--ell")), int(_flag(argv, "--r"))
        extremal = turan_number(n, ell - 1, r)
        ok = res["expected"] == comb(n, r) - extremal
        if op.asks_alpha:
            ok = ok and res["alpha"] == comb(n, r) - extremal
        if "--verify-collapse" in argv:
            ok = ok and res["collapse_ok"] is True
        if "--oracle" in argv:
            ok = ok and res["oracle_ex"] == res["mubayi_value"] == extremal
        return ok
    if cmd == "hilbert":
        d = int(_flag(argv, "--d"))
        return res["value"] == count_independent(n, _kill_pairs(argv), d)
    if cmd == "symmetrize":
        q, r = int(_flag(argv, "--q")), int(_flag(argv, "--r"))
        steps = res["steps"]
        return (
            res["hilbert_initial"] == count_independent(n, _kill_pairs(argv), r)
            and all(s["hilbert_after"] >= s["hilbert_before"] for s in steps)
            and res["hilbert_initial"] <= res["hilbert_terminal"] <= turan_number(n, q, r)
            and sum(res["terminal_class_sizes"]) == n
        )
    raise KeyError(cmd)


# ---------------------------------------------------------------------------
# workloads


def _cli(ref: str, nominal_ms: float, *argv) -> Op:
    return Op(ref=ref, nominal_ms=nominal_ms, argv=tuple(str(a) for a in argv))


class Workload:
    """A menu of fixed ops, an optional seeded fill and a reach ladder.

    ``ladder`` is a list of (n, op); the rungs run in order and the first
    one that fails or runs over ``RUNG_BUDGET_S`` ends it.
    """

    name = ""
    why = ""

    def fixed(self, rng: random.Random) -> list[Op]:
        return []

    def fill(self, rng: random.Random):
        return iter(())

    def ladder(self) -> list[tuple[int, Op]]:
        raise NotImplementedError


RUNG_BUDGET_S = 4.0


# -- diagonal ---------------------------------------------------------------

# (n, ell) -> nominal ms of verify-counterexample at the seed commit
DIAGONAL_GRID = {
    (3, 3): 7, (4, 3): 8, (4, 4): 6, (5, 3): 103, (5, 4): 4, (5, 5): 6,
    (6, 3): 1120, (6, 4): 18, (6, 5): 3, (6, 6): 2,
    (7, 4): 194, (7, 5): 17, (7, 6): 3, (7, 7): 2,
}


def _canonical(edges, n: int) -> tuple:
    """The least relabelling of a 3-graph's edge list: its isomorphism class."""
    return min(
        tuple(sorted(tuple(sorted(perm[v - 1] for v in e)) for e in edges))
        for perm in itertools.permutations(range(1, n + 1))
    )


def _partite(nominal_ms: float, n: int, ell: int, trials: int, seed: int) -> Op:
    return Op("partite-generator theorem", nominal_ms, call=("diagonal", "check_partite_generators", (n, ell, trials, seed)))


class Diagonal(Workload):
    name = "diagonal"
    why = "polynomial core: identify and product over Fraction coefficients in the counterexample and partite checks"

    # ell = 3 calls sample only the empty graph (2-partite 3-graphs have no
    # transversal triple), so each (n, 3) appears once, with 3 trials that
    # the library dedupes.  (n, nominal ms)
    EMPTY = [(3, 5), (4, 35), (5, 4300)]
    # One single-trial call per distinct graph with at most two triples on
    # at most 4 vertices: (n, ell, number of such graphs, nominal ms).
    SMALL = [(3, 4, 2, 3), (4, 4, 11, 10), (4, 5, 11, 8)]
    # Seeded fill: single-trial (5, 4) checks cycling through three
    # isomorphism classes whose cost is steady; the seed picks the labelling.
    FILL = [
        (((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5)), 600),
        (((1, 2, 3), (1, 2, 4), (1, 3, 5)), 1260),
        (((1, 2, 3), (1, 2, 4), (1, 2, 5)), 1350),
    ]

    def _search(self, rng, n: int, ell: int, accept) -> tuple[int, object]:
        """A call seed whose single draw is accepted, with that draw (the graph
        check_partite_generators(n, ell, 1, seed) samples, drawn the library's way)."""
        for _ in range(100_000):
            seed = rng.randrange(1 << 30)
            graph = self._random_graph(n, ell - 1, random.Random(seed))
            if accept(graph):
                return seed, graph
        raise RuntimeError(f"no seed samples the wanted graph at n={n}, ell={ell}")

    def fixed(self, rng):
        from turancover.diagonal import random_partite_3graph

        self._random_graph = random_partite_3graph
        self._used = set()
        ops = [
            _cli("counterexample theorem", ms, "verify-counterexample", "--ell", ell, "--n", n)
            for (n, ell), ms in DIAGONAL_GRID.items()
        ]
        ops += [_partite(ms, n, 3, 3, rng.randrange(1 << 30)) for n, ms in self.EMPTY]
        for n, ell, count, ms in self.SMALL:
            found = {}
            while len(found) < count:
                seed, graph = self._search(rng, n, ell, lambda g: len(g) <= 2 and g not in found)
                found[graph] = seed
            ops += [_partite(ms, n, ell, 1, seed) for seed in found.values()]
        return ops

    def fill(self, rng):
        for edges, ms in itertools.cycle(self.FILL):
            seed, graph = self._search(
                rng, 5, 4, lambda g: g not in self._used and len(g) == len(edges) and _canonical(g.edges, 5) == edges
            )
            self._used.add(graph)
            yield _partite(ms, 5, 4, 1, seed)

    def ladder(self):
        return [(n, _cli("counterexample theorem", 0, "verify-counterexample", "--ell", 3, "--n", n)) for n in (5, 6, 7, 8)]


# -- turan ------------------------------------------------------------------

# forbid -> [(n, with --oracle, nominal ms)]; --oracle only where the
# brute-force oracle accepts (C(n, r) <= 30) and stays cheap.
EX_MENU = {
    "K3": [(3, 0, 3), (4, 1, 3), (5, 0, 3), (6, 1, 7), (7, 0, 16), (8, 1, 300), (9, 0, 1100)],
    "K4": [(4, 0, 3), (5, 1, 5), (6, 0, 7), (7, 1, 61), (8, 0, 370)],
    "K5": [(5, 0, 4), (6, 1, 24), (7, 0, 36), (8, 0, 115)],
    "C4": [(4, 0, 3), (5, 1, 6), (6, 0, 190)],
    "P3": [(3, 0, 2), (4, 1, 2), (5, 0, 3), (6, 1, 16), (7, 0, 970)],
    "K_ell_r(4,3)": [(4, 0, 3), (5, 1, 13), (6, 0, 1130)],
    "K_ell_r(3,2)": [(3, 0, 3), (4, 1, 2), (5, 0, 2), (6, 1, 17), (7, 1, 200), (8, 0, 40), (9, 0, 910)],
}
GEN_EX_MENU = {
    ("K3", "K4"): [(4, 0, 4), (5, 1, 5), (6, 0, 6), (7, 1, 165), (8, 0, 540)],
    ("K3", "K5"): [(5, 0, 4), (6, 0, 13), (7, 1, 97), (8, 0, 172)],
    ("K4", "K5"): [(5, 1, 4), (6, 0, 8), (7, 0, 34), (8, 0, 390)],
    ("P3", "K3"): [(3, 0, 2), (4, 0, 2), (5, 1, 5), (6, 0, 6), (7, 1, 206), (8, 0, 277)],
    ("C4", "K3"): [(4, 0, 2), (5, 0, 3), (6, 1, 10), (7, 0, 17), (8, 0, 80)],
    ("K3", "C4"): [(4, 0, 3), (5, 1, 6), (6, 0, 14), (7, 0, 160)],
}


class Turan(Workload):
    name = "turan"
    why = "hitting-set search (min_hitting_set, alpha_target) with copy enumeration and oracles; the polynomial core is idle"

    def fixed(self, rng):
        ops = []
        for forbid, rows in EX_MENU.items():
            for n, oracle, ms in rows:
                argv = ["ex", "--forbid", forbid, "--n", n] + (["--oracle"] if oracle else [])
                ops.append(_cli(ex_reference(forbid, n)[1], ms, *argv))
        for (target, forbid), rows in GEN_EX_MENU.items():
            for n, oracle, ms in rows:
                argv = ["gen-ex", "--target", target, "--forbid", forbid, "--n", n]
                ops.append(_cli(gen_ex_reference(target, forbid, n)[1], ms, *argv + (["--oracle"] if oracle else [])))
        return ops

    def ladder(self):
        return [(n, _cli("Turán t_2(n,s-1)", 0, "ex", "--forbid", "K3", "--n", n)) for n in (8, 9, 10, 11)]


# -- star -------------------------------------------------------------------

# (n, ell, r) -> (mode, nominal ms); each point appears once, in one mode:
# a = --alpha, ao = --alpha --oracle (scans twice today), c = --verify-collapse
STAR_MENU = {
    (3, 3, 2): ("a", 1), (4, 3, 2): ("ao", 1), (5, 3, 2): ("c", 32), (6, 3, 2): ("c", 1180), (7, 3, 2): ("a", 1250),
    (4, 4, 2): ("a", 2), (5, 4, 2): ("ao", 2), (6, 4, 2): ("c", 1380), (7, 4, 2): ("ao", 300),
    (5, 5, 2): ("c", 16), (6, 5, 2): ("a", 2), (7, 5, 2): ("ao", 87), (8, 5, 2): ("a", 44),
    (6, 6, 2): ("ao", 3), (7, 6, 2): ("a", 2), (8, 6, 2): ("ao", 620), (9, 6, 2): ("a", 107),
    (3, 3, 3): ("a", 2), (4, 3, 3): ("c", 2), (5, 3, 3): ("c", 21), (6, 3, 3): ("ao", 3),
    (7, 3, 3): ("a", 4), (8, 3, 3): ("a", 6), (9, 3, 3): ("a", 9),
    (4, 4, 3): ("ao", 2), (5, 4, 3): ("c", 37), (6, 4, 3): ("ao", 1440),
    (5, 5, 3): ("c", 19), (6, 5, 3): ("a", 280), (6, 6, 3): ("ao", 55),
    (4, 3, 4): ("c", 2), (5, 3, 4): ("ao", 2), (6, 3, 4): ("c", 900), (7, 3, 4): ("a", 3),
    (8, 3, 4): ("a", 4), (9, 3, 4): ("a", 10),
    (4, 4, 4): ("c", 2), (5, 4, 4): ("c", 3), (6, 4, 4): ("ao", 3), (7, 4, 4): ("a", 3),
    (8, 4, 4): ("a", 5), (9, 4, 4): ("a", 14),
    (5, 5, 4): ("ao", 2), (6, 5, 4): ("ao", 41), (6, 6, 4): ("ao", 43),
}
STAR_FLAGS = {"a": ["--alpha"], "ao": ["--alpha", "--oracle"], "c": ["--verify-collapse"]}


class Star(Workload):
    name = "star"
    why = "codegree-star certification: the exhaustive support scan and the collapse check"

    def fixed(self, rng):
        return [
            _cli("star ideal C(n,r)-t_r(n,ell-1)", ms, "codegree-star", "--n", n, "--ell", ell, "--r", r, *STAR_FLAGS[mode])
            for (n, ell, r), (mode, ms) in STAR_MENU.items()
        ]

    def ladder(self):
        return [
            (n, _cli("star ideal C(n,r)-t_r(n,ell-1)", 0, "codegree-star", "--ell", 4, "--r", 3, "--alpha", "--n", n))
            for n in (6, 7, 8, 9)
        ]


# -- hilbert ----------------------------------------------------------------

# hilbert strata (n, kill density, d, nominal ms): sparse (slow) to dense (fast)
HILBERT_STRATA = [
    (20, 0.1, 6, 6), (24, 0.2, 6, 6), (30, 0.2, 6, 20), (40, 0.3, 6, 23),
    (40, 0.5, 5, 6), (60, 0.5, 5, 14), (60, 0.7, 4, 10), (80, 0.9, 3, 19),
]
# symmetrize strata (n, q, r, cross-class kill density, nominal ms)
SYMMETRIZE_STRATA = [(20, 4, 2, 0.3, 11), (30, 5, 3, 0.3, 55), (40, 4, 3, 0.3, 147), (40, 8, 2, 0.5, 76)]


def _kill_argv(pairs) -> list[str]:
    return ["--kill", *(f"{a},{b}" for a, b in pairs)] if pairs else []


class Hilbert(Workload):
    name = "hilbert"
    why = "square-zero quotients: Hilbert counting (reads) beside symmetrize clone steps (writes)"

    def fill(self, rng):
        seen = set()
        while True:
            for n, density, d, ms in HILBERT_STRATA:
                pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]
                if ("h", n, d, tuple(pairs)) in seen:
                    continue
                seen.add(("h", n, d, tuple(pairs)))
                yield _cli("benchmark's own independent-set count", ms, "hilbert", "--n", n, "--d", d, *_kill_argv(pairs))
            for n, q, r, density, ms in SYMMETRIZE_STRATA:
                # q colour classes are killed inside, so no q+1 variables
                # multiply to nonzero and the degree-(q+1) piece vanishes
                colour = {v: rng.randrange(q) for v in range(1, n + 1)}
                pairs = [
                    (a, b)
                    for a, b in itertools.combinations(range(1, n + 1), 2)
                    if colour[a] == colour[b] or rng.random() < density
                ]
                if ("s", n, q, r, tuple(pairs)) in seen:
                    continue
                seen.add(("s", n, q, r, tuple(pairs)))
                yield _cli("symmetrization: non-decreasing, <= t_r(n,q)", ms, "symmetrize", "--n", n, "--q", q, "--r", r, *_kill_argv(pairs))

    def ladder(self):
        # no kill pairs: the value is C(n, 2) and the count recurses n deep
        return [(n, _cli("benchmark's own independent-set count", 0, "hilbert", "--n", n, "--d", 2)) for n in (250, 500, 1000, 2000, 4000)]


WORKLOADS = {w.name: w for w in (Diagonal, Turan, Star, Hilbert)}


def build_ops(name: str, seed: int, seconds: float) -> list[Op]:
    """The pass for (workload, seed): the shuffled fixed menu up to a nominal
    ``seconds`` of work, then seeded fill ops until that budget is spent.
    The same arguments give the same list."""
    workload = WORKLOADS[name]()
    rng = random.Random(seed)
    budget = seconds * 1000.0
    fixed = workload.fixed(rng)
    rng.shuffle(fixed)
    ops, spent = [], 0.0
    for op in fixed:
        if spent + op.nominal_ms <= budget or not ops:
            ops.append(op)
            spent += op.nominal_ms
    for op in workload.fill(rng):
        if spent + op.nominal_ms > budget and ops:
            break
        ops.append(op)
        spent += op.nominal_ms
    rng.shuffle(ops)
    return ops
