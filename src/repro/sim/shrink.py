"""Greedy minimisation of failing fuzz cases.

A raw fuzzer hit is rarely the smallest witness: the geometry is
bigger than needed, most scenario ops are irrelevant, and the data
seed is arbitrary.  :func:`shrink_case` applies the classic greedy
loop -- propose a strictly smaller candidate, keep it iff it *still
fails the same way*, repeat to fixpoint -- over moves tailored to the
two case kinds:

* stripe cases: drop erasures, walk ``p`` down the prime menu, walk
  ``k`` toward 2, shrink the element size, zero the data seed;
* scenarios: delta-debug the op list (halves first, then single ops),
  then shrink the same geometry knobs, rewriting ops that the smaller
  geometry invalidates (out-of-range columns are dropped, offsets and
  stripe indices clamped).

"Fails the same way" compares the :class:`DivergenceError`'s oracle
label (from ``context``), so a candidate that merely trips an
unrelated error -- e.g. over-shrinking a scenario until three columns
are lost at once raises ``ClusterDegradedError`` -- is rejected rather
than hijacking the shrink.
"""

from __future__ import annotations

from repro.codes import make_code
from repro.sim.scenario import DivergenceError

__all__ = ["shrink_case", "failure_signature"]

_PRIME_MENU = (5, 7, 11, 13)
_ELEMENT_MENU = (8, 16, 32)


def failure_signature(case: dict, *, code_factory=make_code) -> str | None:
    """Run a case; return its oracle label if it diverges, else None.

    Any non-divergence exception (a structurally invalid candidate)
    also returns ``None`` -- the shrinker must never replace a real
    divergence with a construction error.
    """
    from repro.sim.differential import run_case_dict

    try:
        run_case_dict(case, code_factory=code_factory)
    except DivergenceError as exc:
        return str(exc.context.get("oracle", "divergence"))
    except Exception:
        return None
    return None


# -- candidate moves ----------------------------------------------------------


def _geometry_moves(case: dict):
    """Smaller-geometry rewrites shared by both case kinds."""
    p, k = case["p"], case["k"]
    smaller_primes = [q for q in _PRIME_MENU if q < p]
    if smaller_primes:
        q = smaller_primes[-1]
        yield {**case, "p": q, "k": min(k, q)}
    if k > 2:
        yield {**case, "k": k - 1}
    smaller_elems = [e for e in _ELEMENT_MENU if e < case["element_size"]]
    if smaller_elems:
        yield {**case, "element_size": smaller_elems[-1]}


def _stripe_moves(case: dict):
    ers = case["erasures"]
    for i in range(len(ers)):
        yield {**case, "erasures": ers[:i] + ers[i + 1 :]}
    for cand in _geometry_moves(case):
        yield _fix_stripe(cand)
    if case["seed"] != 0:
        yield {**case, "seed": 0}


def _fix_stripe(case: dict) -> dict:
    """Clamp erasures to the (possibly shrunk) column range."""
    n_cols = case["k"] + 2
    return {**case, "erasures": sorted({min(c, n_cols - 1) for c in case["erasures"]})}


def _scenario_moves(case: dict):
    ops = case["ops"]
    # Delta-debugging: big bites first (drop a half / a quarter)...
    n = len(ops)
    for frac in (2, 4):
        size = max(1, n // frac)
        for start in range(0, n, size):
            if n - size >= 1:
                yield {**case, "ops": ops[:start] + ops[start + size :]}
    # ... then single ops.
    for i in range(n):
        yield {**case, "ops": ops[:i] + ops[i + 1 :]}
    if case["n_stripes"] > 1:
        yield _fix_scenario({**case, "n_stripes": case["n_stripes"] - 1})
    for cand in _geometry_moves(case):
        yield _fix_scenario(cand)


def _fix_scenario(case: dict) -> dict:
    """Rewrite ops the shrunk geometry invalidated."""
    k, p = case["k"], case["p"]
    n_cols = k + 2
    capacity = k * p * case["element_size"] * case["n_stripes"]
    ops = []
    for op in case["ops"]:
        op = dict(op)
        col = op.get("column")
        if col is not None and col >= n_cols:
            continue  # that column no longer exists
        if op["op"] in ("write", "read"):
            op["offset"] = min(int(op["offset"]), capacity - 1)
            op["length"] = max(1, min(int(op["length"]), capacity - op["offset"]))
        if op["op"] in ("latent", "corrupt"):
            op["stripe"] = min(int(op["stripe"]), case["n_stripes"] - 1)
        ops.append(op)
    return {**case, "ops": ops}


def _cost(case: dict) -> tuple:
    """Lexicographic size: fewer ops/erasures, then smaller geometry."""
    return (
        len(case.get("ops", case.get("erasures", []))),
        case["p"],
        case["k"],
        case.get("n_stripes", 0),
        case["element_size"],
    )


def shrink_case(
    case: dict, *, code_factory=make_code, max_attempts: int = 400
) -> dict:
    """Greedily minimise ``case``, preserving its failure signature.

    ``max_attempts`` bounds total candidate runs so shrinking a slow
    scenario can never stall a fuzz session; the best case found so
    far is returned either way.
    """
    target = failure_signature(case, code_factory=code_factory)
    if target is None:
        return case  # not reproducible: nothing safe to shrink against

    moves = _scenario_moves if case.get("kind") == "scenario" else _stripe_moves
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cand in moves(case):
            attempts += 1
            if attempts >= max_attempts:
                break
            if _cost(cand) >= _cost(case):
                continue
            if failure_signature(cand, code_factory=code_factory) == target:
                case = cand
                improved = True
                break  # restart moves from the smaller case
    return case
