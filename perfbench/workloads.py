"""The four closed-loop workloads: seeded inputs, the items of one pass, and their checks.

Every workload is one client in a closed loop: an item starts only when the
previous one has finished.  A pass is the workload's fixed list of items;
the measured phase repeats passes.  The CLI workloads call
`convexlab.cli.main([...])` in-process with `--output` to a file in the work
directory; the battery calls the audit functions directly, because no CLI
command runs it.  The program sees only the set files and configs written
during set-up, never the seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, ClassVar

from tracing import lattice_bits


def derive(seed: int, label: str) -> int:
    """Child seed of the benchmark seed for one labelled input."""
    return int.from_bytes(hashlib.sha256(f"perfbench/{seed}/{label}".encode()).digest()[:8], "big")


def write_set(path: Path, values) -> list[Fraction]:
    """Write a set file (one exact scalar per line) and return its distinct elements."""
    elems = list(dict.fromkeys(Fraction(v) for v in values))
    path.write_text("".join(f"{q.numerator}/{q.denominator}\n" if q.denominator != 1
                            else f"{q.numerator}\n" for q in elems), encoding="utf-8")
    return elems


@dataclass
class Item:
    """One closed-loop request.  `call` is timed; `check` runs afterwards, untimed.

    `check(result)` returns (report bytes, problems); an empty problem list
    means the output is correct.  `weight` is how many items the call counts
    as (the annealing steps of one search command).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bytes, list[str]]]
    weight: int = 1
    cli: bool = True


@dataclass
class Workload:
    """Inputs of one run and the items built on them."""

    name: str
    program: object                     # namespace with the convexlab modules
    workdir: Path
    seed: int
    tiny: bool
    inputs: list[dict] = field(default_factory=list)
    passes: int = 1                     # distinct passes; pass k uses inputs k mod passes
    single_thread: ClassVar[bool] = True    # False when items run a --workers 2 thread pool

    def setup(self) -> None:
        raise NotImplementedError

    def pass_items(self, k: int) -> list[Item]:
        raise NotImplementedError

    def warmup_item(self) -> Item:
        return self.pass_items(0)[0]

    # -- shared CLI plumbing ----------------------------------------------
    def cli_item(self, label: str, argv: list[str], check, weight: int = 1) -> Item:
        out = f"out-{label}.txt"

        def call():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = self.program.cli.main(argv + ["--output", out])
            return code, err.getvalue()

        def checked(result):
            code, err = result
            if code != 0:
                return b"", [f"exit code {code}: {err.strip()[-200:]}"]
            data = (self.workdir / out).read_bytes()
            return data, check(data)

        return Item(label, call, checked, weight)


# ---------------------------------------------------------------- chain-audit
class ChainAudit(Workload):
    """CLI stats on the squares set, then audit T1/T2/T3 --fn square on it and a random-convex set."""

    def setup(self) -> None:
        fam = self.program.families
        n_sq, n_rc = (12, 10) if self.tiny else (64, 48)
        sets = {
            f"squares{n_sq}": fam.generate(fam.FamilySpec("squares", n_sq)),
            f"rconvex{n_rc}": fam.generate(fam.FamilySpec("random-convex", n_rc,
                                                          seed=derive(self.seed, "rconvex"))),
        }
        self.files = []
        self.inputs = []
        for name, a in sets.items():
            elems = write_set(self.workdir / f"{name}.txt", a.elements)
            self.files.append(name)
            self.inputs.append({"input": name, "size": len(elems),
                                "lattice_bits": lattice_bits(elems, elems), "pairs": len(elems) ** 2})

    def pass_items(self, k: int) -> list[Item]:
        # Seven commands, an odd count, so the median latency falls inside one
        # command's cluster instead of jumping between two.
        first = self.files[0]
        items = [self.cli_item(f"stats-{first}", ["stats", "--input", f"{first}.txt"],
                               check_stats)]
        for name in self.files:
            for theorem in ("T1", "T2", "T3"):
                items.append(self.cli_item(
                    f"audit-{theorem}-{name}",
                    ["audit", "--input", f"{name}.txt", "--theorem", theorem, "--fn", "square"],
                    check_audit))
        return items


def check_stats(data: bytes) -> list[str]:
    rep = json.loads(data)
    n, e = rep["sizes"]["size"], int(rep["energy"]["E"])
    problems = []
    for key in ("sumset", "diffset"):
        if n ** 4 > e * rep["sizes"][key]:      # Cauchy-Schwarz: |A|^4 <= E(A) |A+-A|
            problems.append(f"stats: |A|^4 > E |{key}|")
    return problems


def check_audit(data: bytes) -> list[str]:
    lines = [json.loads(line) for line in data.decode().splitlines()]
    problems = [f"step {r['name']} is {r['verdict']}" for r in lines
                if r.get("type") == "step" and r["verdict"] not in ("PASS", "REPORT_ONLY")]
    if not lines or lines[-1].get("type") != "chain":
        problems.append("audit report has no chain line")
    return problems


# --------------------------------------------------------- inequality-battery
class InequalityBattery(Workload):
    """Random rational pairs through check_lemma_e15, check_holder and check_cauchy_schwarz.

    Sizes are stratified: in each pass every size in 2..64 occurs once as |A|
    and once as |B| (seeded permutations), so every pass carries the same size
    mix and the seed changes only the pairing and the element values.
    """

    def setup(self) -> None:
        top = 8 if self.tiny else 64
        self.passes = 2 if self.tiny else 16
        rng = random.Random(derive(self.seed, "battery"))
        self.pairs: list[list[tuple[str, str]]] = []
        self.inputs = []
        bits = []
        pair_count = 0
        for k in range(self.passes):
            sizes_a, sizes_b = list(range(2, top + 1)), list(range(2, top + 1))
            rng.shuffle(sizes_a)
            rng.shuffle(sizes_b)
            row = []
            for i, (na, nb) in enumerate(zip(sizes_a, sizes_b)):
                fa, fb = f"p{k:02d}-{i:02d}-A.txt", f"p{k:02d}-{i:02d}-B.txt"
                a = write_set(self.workdir / fa, _random_rationals(rng, na))
                b = write_set(self.workdir / fb, _random_rationals(rng, nb))
                row.append((fa, fb))
                bits.append(lattice_bits(a, b))
                pair_count += na * nb
            self.pairs.append(row)
        bits.sort()
        self.inputs.append({"input": f"{self.passes} passes x {len(self.pairs[0])} pairs",
                            "size": f"|A|,|B| in 2..{top}",
                            "lattice_bits": {"median": bits[len(bits) // 2], "max": bits[-1]},
                            "pairs": pair_count})

    def pass_items(self, k: int) -> list[Item]:
        return [self._pair_item(k % self.passes, i, fa, fb)
                for i, (fa, fb) in enumerate(self.pairs[k % self.passes])]

    def _pair_item(self, k: int, i: int, fa: str, fb: str) -> Item:
        prog = self.program

        def call():
            a, b = prog.sets.read_set_file(fa), prog.sets.read_set_file(fb)
            reports = [prog.audit.check_lemma_e15(a, b), prog.audit.check_holder(a)]
            for mode in ("sum", "diff"):
                reports += prog.audit.check_cauchy_schwarz(a, mode)
            reports += prog.audit.check_cauchy_schwarz(a, "cross", b)
            return a, b, reports

        def check(result):
            a, b, reports = result
            data = json.dumps([r.to_json_dict() for r in reports], sort_keys=True).encode()
            problems = [f"{r.name} is {r.verdict}" for r in reports if r.verdict != "PASS"]
            if prog.energy.energy(a, b, via="difference") != prog.energy.energy(a, b, via="sum"):
                problems.append("delta and sigma energy routes disagree")
            return data, problems

        return Item(f"pair-{k:02d}-{i:02d}", call, check, cli=False)


def _random_rationals(rng: random.Random, size: int) -> set[Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < size:
        vals.add(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 64)))
    return vals


# ------------------------------------------------------------- incidence-grid
INCIDENCE_FNS = ("square", "power:3", "reciprocal", "exp2")


class IncidenceGrid(Workload):
    """CLI incidence --workers 2 over square, power:3, reciprocal and exp2 instances."""

    single_thread = False

    def setup(self) -> None:
        fam = self.program.families
        sizes = (4, 6) if self.tiny else (16, 18, 20, 22)
        self.instances = []
        self.inputs = []
        for n in sizes:
            for fn in INCIDENCE_FNS:
                tag = f"{fn.replace(':', '')}-n{n}"
                rng = random.Random(derive(self.seed, tag))
                sets = []
                for part in "ABC":
                    if fn == "exp2":    # exp2 is exact only on integers
                        values = rng.sample(range(1, 2 * n + 1), n)
                    else:
                        values = fam.generate(fam.FamilySpec(
                            "random-convex", n, seed=rng.getrandbits(32))).elements
                    sets.append(write_set(self.workdir / f"{tag}-{part}.txt", values))
                a, b, c = sets
                self.instances.append((tag, fn, len(a), len(b), len(c)))
                self.inputs.append({"input": tag, "size": [len(a), len(b), len(c)],
                                    "lattice_bits": lattice_bits(a, b),
                                    "pairs": len(a) * len(b), "curves": len(b) * len(c)})

    def pass_items(self, k: int) -> list[Item]:
        items = []
        for tag, fn, na, nb, nc in self.instances:
            argv = ["incidence", "--input", f"{tag}-A.txt", "--bset", f"{tag}-B.txt",
                    "--cset", f"{tag}-C.txt", "--fn", fn, "--workers", "2"]
            items.append(self.cli_item(f"incidence-{tag}", argv,
                                       _incidence_check(na, nb, nc)))
        return items


def _incidence_check(na: int, nb: int, nc: int):
    def check(data: bytes) -> list[str]:
        rep = json.loads(data)["incidence"]
        problems = []
        if rep["stBoundHolds"] is not True:
            problems.append("incidence bound reported violated")
        if rep["maxPointCurves"] > min(nb, nc):
            problems.append("a point lies on more than min(|B|,|C|) curves")
        if rep["curves"] != nb * nc or rep["incidences"] < na * nb * nc:
            problems.append("curve or diagonal-incidence count is wrong")
        return problems
    return check


# -------------------------------------------------------------- anneal-search
SEARCH_OBJECTIVES = ("diffProdRatio", "T2ratio")


class AnnealSearch(Workload):
    """CLI search --workers 2; an item is one annealing step."""

    single_thread = False

    def setup(self) -> None:
        size, self.iterations, self.restarts = (6, 3, 2) if self.tiny else (24, 20, 2)
        self.configs = []
        self.inputs = []
        for j in range(2):
            for objective in SEARCH_OBJECTIVES:
                name = f"search-{objective}-{j}"
                cfg = {"objective": objective, "set_size": size, "iterations": self.iterations,
                       "restarts": self.restarts, "seed": derive(self.seed, name) % 2 ** 31,
                       "temp_initial": "1", "temp_decay": "0.995"}
                (self.workdir / f"{name}.json").write_text(json.dumps(cfg, sort_keys=True),
                                                           encoding="utf-8")
                self.configs.append(name)
                start = [Fraction(2) ** i for i in range(size)]    # default geometric start
                self.inputs.append({"input": name, "size": size,
                                    "lattice_bits": lattice_bits(start, start),
                                    "pairs": 2 * size * size,
                                    "steps": self.iterations * self.restarts})

    def pass_items(self, k: int) -> list[Item]:
        steps = self.iterations * self.restarts
        return [self.cli_item(name, ["search", "--config", f"{name}.json", "--workers", "2"],
                              _search_check(steps), weight=steps)
                for name in self.configs]


def _search_check(steps: int):
    def check(data: bytes) -> list[str]:
        lines = [json.loads(line) for line in data.decode().splitlines()]
        traces = [r for r in lines if "iteration" in r]
        problems = []
        if len(traces) != steps:
            problems.append(f"{len(traces)} trace lines for {steps} steps")
        if not lines or lines[-1].get("type") != "result":
            problems.append("search report has no result line")
        return problems
    return check


WORKLOADS = {
    "chain-audit": ChainAudit,
    "inequality-battery": InequalityBattery,
    "incidence-grid": IncidenceGrid,
    "anneal-search": AnnealSearch,
}
