"""Simulated-annealing search for near-extremal sets under growth objectives.

Objectives are the normalized growth ratios the theorem chains end with,
e.g.  diffProdRatio = max{|A*A|, |A-A|} * (log2 n)^(2/11) / n^(14/11),
with the exponents read from the chain's derived final ratio.  The set size
is fixed during a run, so the irrational normalization is a per-run constant
(a 100-bit dyadic approximation, fixed convention: upper bound of the log
power over lower bound of the size power).  The run compares the integer
cores (`objective_core`), which order as the objectives do; the constant is
applied only to the acceptance delta and to the rendered values.

Moves either replace one element inside the window spanned by its neighbors
or shift everything above a chosen gap, both rejecting proposals that break
distinctness or positivity.  A step stays on the (ints, denom) lattice from
proposal to count: both moves are exact integers on Z/(2048 * denom), images
are integer maps (`apply_fn`), and a set counted with itself is sized over
its pairs i <= j (i < j for -).  Acceptance uses exp(-delta/T) evaluated
with 30-digit decimals, so traces are bit-reproducible from the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction

from .comparison import fraction_to_decimal, pow_frac_bounds
from .audit import CHAINS, clamped_log2
from .errors import DomainError, over_budget
from .families import FamilySpec, generate
from .functions import LOG, ConvexFn, apply_fn, fn_by_name
from .seeding import derive_seed
from .sets import PAIR_BUDGET, NumberSet, _from_ints, count_pairs

# The theorem chain whose final ratio each objective normalizes
OBJECTIVE_CHAINS = {"T1ratio": "T1", "T2ratio": "T2", "diffProdRatio": "T1", "sumProdRatio": "T2"}
OBJECTIVES = tuple(OBJECTIVE_CHAINS)
MOVES = ("element-replace", "gap-perturb")

_WINDOW_STEPS = 1024
_NORM_PREC_BITS = 100


@dataclass(frozen=True)
class SearchConfig:
    objective: str
    set_size: int
    iterations: int
    seed: int = 0
    temp_initial: Fraction = Fraction(1)
    temp_decay: Fraction = Fraction(995, 1000)
    move_set: tuple[str, ...] = MOVES
    initial: FamilySpec | None = None
    fn_name: str = "square"
    restarts: int = 1

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.set_size < 4:
            raise ValueError("set_size must be at least 4")
        if self.set_size ** 2 > PAIR_BUDGET:  # every objective counts |A|^2 pairs
            raise over_budget("pair count", self.set_size ** 2, "PAIR_BUDGET", PAIR_BUDGET)
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.temp_initial <= 0 or not 0 < self.temp_decay <= 1:
            raise ValueError("temperature schedule must be positive with decay in (0,1]")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not self.move_set or any(m not in MOVES for m in self.move_set):
            raise ValueError(f"move_set must be a nonempty subset of {MOVES}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchConfig":
        spec = data.get("initial")
        if spec is not None:
            spec = {k: Fraction(v) if k in ("ratio", "start", "step") else v for k, v in spec.items()}
            spec = FamilySpec(**{"n": data["set_size"], **spec})
        return cls(
            objective=data["objective"],
            set_size=int(data["set_size"]),
            iterations=int(data["iterations"]),
            seed=int(data.get("seed", 0)),
            temp_initial=Fraction(str(data.get("temp_initial", "1"))),
            temp_decay=Fraction(str(data.get("temp_decay", "0.995"))),
            move_set=tuple(data.get("move_set", MOVES)),
            initial=spec,
            fn_name=data.get("fn", "square"),
            restarts=int(data.get("restarts", 1)),
        )

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "set_size": self.set_size,
            "iterations": self.iterations,
            "seed": self.seed,
            "temp_initial": str(self.temp_initial),
            "temp_decay": str(self.temp_decay),
            "move_set": list(self.move_set),
            "fn": self.fn_name,
            "restarts": self.restarts,
            "initial": None if self.initial is None else {
                k: str(v) if isinstance(v, Fraction) else v for k, v in vars(self.initial).items()
            },
        }


def normalization_exponents(objective: str) -> tuple[Fraction, Fraction]:
    """(a, b) with max{|X|, |Y|} >> n^b / (log2 n)^a, from the chain's final ratio.

    The final ratio |X|^x |Y|^y (log|A|)^l / |A|^s is >> 1, so the larger
    size M has M^(x+y) >> |A|^s / (log|A|)^l: a = l / (x+y), b = s / (x+y).
    """
    final = CHAINS[OBJECTIVE_CHAINS[objective]].final
    log_exp, size_exp = final[("log",)], -final[("size", "A")]
    grown = sum(final.values()) - log_exp + size_exp
    return log_exp / grown, size_exp / grown


def normalization_constant(objective: str, n: int) -> Fraction:
    """Dyadic approximation of (log2 n)^a / n^b at 100 bits, fixed convention."""
    log_exp, size_exp = normalization_exponents(objective)
    log_value, _ = clamped_log2(n)
    num = pow_frac_bounds(log_value, log_exp, _NORM_PREC_BITS)[1]
    den = pow_frac_bounds(Fraction(n), size_exp, _NORM_PREC_BITS)[0]
    return num / den


def objective_core(objective: str, a: NumberSet, fn: ConvexFn) -> int:
    """The integer part of the objective: the larger of two combination-set sizes.

    Each annealing step reads a new set once, so its counts are not kept on
    it (`current` and `best` would hold them for the rest of the run), and
    only their sizes are read, which the pure-Python paths count as sets.
    """
    if objective in ("diffProdRatio", "sumProdRatio"):
        LOG.require_audit_domain(a)
        grown = len(count_pairs(a, a, "*"))
    else:
        fa = apply_fn(fn, a)
        grown = len(count_pairs(fa, fa, "+"))
    other = len(count_pairs(a, a, "-" if OBJECTIVE_CHAINS[objective] == "T1" else "+"))
    return max(grown, other)


def objective_value(cfg: SearchConfig, a: NumberSet) -> Fraction:
    """Exact current value of the configured objective on a set."""
    fn = fn_by_name(cfg.fn_name)
    return objective_core(cfg.objective, a, fn) * normalization_constant(cfg.objective, len(a))


@dataclass(frozen=True)
class SearchOutcome:
    config: SearchConfig
    best_set: NumberSet
    best_objective: Fraction
    traces: tuple[dict, ...]

    def best_objective_decimal(self, digits: int = 30) -> str:
        return fraction_to_decimal(self.best_objective, digits)


def _initial_set(cfg: SearchConfig, restart_seed: int) -> NumberSet:
    spec = cfg.initial or FamilySpec(kind="geometric", n=cfg.set_size, ratio=Fraction(2))
    start = spec.start if spec.kind != "AP" or spec.start > 0 else Fraction(1)
    a = generate(replace(spec, n=cfg.set_size, seed=restart_seed, start=start))
    if not a.is_strictly_positive():
        raise DomainError("search requires strictly positive initial sets")
    return a


def _propose(rng: random.Random, a: NumberSet, move: str) -> NumberSet | None:
    scale = 2 * _WINDOW_STEPS  # both moves are exact on Z/(scale * a.denom) and keep the order
    e = [v * scale for v in a.ints]
    n = len(e)
    if move == "element-replace":
        i = rng.randrange(n)
        lo = e[i - 1] if i > 0 else e[0] // 2
        hi = e[i + 1] if i < n - 1 else e[-1] + (e[-1] - e[-2])
        k = rng.randint(1, _WINDOW_STEPS - 1)
        candidate = lo + (hi - lo) * k // _WINDOW_STEPS
        if candidate <= 0 or candidate == e[i]:  # e[i] is the only element strictly between lo and hi
            return None
        return _from_ints(e[:i] + [candidate] + e[i + 1:], a.denom * scale)
    # gap-perturb: shift everything from index i by a fraction of gap i
    i = rng.randint(1, n - 1)
    k = rng.randint(0, _WINDOW_STEPS)
    delta = (e[i] - e[i - 1]) * (2 * k - _WINDOW_STEPS) // scale
    if delta == 0:
        return None
    return _from_ints(e[:i] + [q + delta for q in e[i:]], a.denom * scale)


def _accept(rng: random.Random, delta: int, norm: Fraction, temp: Fraction) -> bool:
    if delta <= 0:  # the cores' change: the objective's is delta * norm
        return True
    delta *= norm
    u = rng.random()
    with localcontext() as ctx:
        ctx.prec = 30
        x = Decimal(delta.numerator) / Decimal(delta.denominator)
        t = Decimal(temp.numerator) / Decimal(temp.denominator)
        threshold = (-(x / t)).exp()
        return Decimal(u) < threshold


def _run_restart(cfg: SearchConfig, restart: int, digits: int, norm: Fraction) -> tuple[int, NumberSet, list[dict]]:
    seed = derive_seed(cfg.seed, f"restart:{restart}")
    rng = random.Random(seed)
    fn = fn_by_name(cfg.fn_name)
    current = _initial_set(cfg, seed)
    cur_core = objective_core(cfg.objective, current, fn)
    best, best_core = current, cur_core
    cur_text = best_text = fraction_to_decimal(cur_core * norm, digits)  # re-rendered only when the value changes
    trace: list[dict] = []
    temp = cfg.temp_initial
    for it in range(cfg.iterations):
        move = cfg.move_set[rng.randrange(len(cfg.move_set))]
        proposal = _propose(rng, current, move)
        accepted = False
        if proposal is not None:
            new_core = objective_core(cfg.objective, proposal, fn)
            if _accept(rng, new_core - cur_core, norm, temp):
                current, cur_core = proposal, new_core
                cur_text = fraction_to_decimal(cur_core * norm, digits)
                accepted = True
                if new_core < best_core or new_core == best_core and (  # ties: x / d < y / e iff x * e < y * d
                        [v * best.denom for v in proposal.ints] < [v * proposal.denom for v in best.ints]):
                    best, best_core, best_text = proposal, new_core, cur_text
        trace.append({
            "restart": restart,
            "iteration": it,
            "objective": cur_text,
            "accepted": accepted,
            "best": best_text,
        })
        temp *= cfg.temp_decay
    return best_core, best, trace


def extremal_search(cfg: SearchConfig, digits: int = 30) -> SearchOutcome:
    """Run all restarts serially, in one thread, and merge deterministically.

    Restarts are independently seeded, so their order never changes the
    outcome.  The merge takes the best objective with the lexicographically
    smallest set as tie-break.
    """
    norm = normalization_constant(cfg.objective, cfg.set_size)
    results = [_run_restart(cfg, i, digits, norm) for i in range(cfg.restarts)]
    best_core, best, _ = min(results, key=lambda r: (r[0], r[1].elements))
    traces = tuple(t for _, _, trace in results for t in trace)
    return SearchOutcome(config=cfg, best_set=best, best_objective=best_core * norm, traces=traces)
