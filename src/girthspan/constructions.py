"""Instance pipeline: 3SAT(5) generation, Label Cover construction,
duplication regularization, parallel repetition, and labeling lifts.

The 3SAT(5) generator uses a configuration model (5 slots per variable,
partitioned into triples with distinct variables, bounded swap repair on
collisions).  Planted mode flips one literal per clause to agree with the
planted assignment when needed.  All randomness comes from a SplitMix64
stream derived from the caller's seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from .graphs import _decimals, _head_lines
from .labelcover import LabelCoverInstance, Labeling, _check_sizes
from .rng import Stream, child_seed

CLAUSE_ALPHABET = 7   # satisfying assignments of a 3-literal clause
VAR_ALPHABET = 2

DEFAULT_MAX_SUPEREDGES = 10_000_000
# Configuration-model budget: reshuffles, and swap-repair rounds per shuffle.
MAX_RESTARTS = 80
MAX_REPAIR_PASSES = 400


def check_var_count(n: int) -> None:
    """Reject a 3SAT(5) variable count below 3 or not divisible by 3."""
    if n < 3 or n % 3 != 0:
        raise InputError("variable count must be >= 3 and divisible by 3")


def check_ell(ell: int) -> None:
    """Reject a parallel-repetition count below 1."""
    if ell < 1:
        raise InputError("ell must be >= 1")


def check_repetition_budget(edge_count: int, ell: int,
                            max_superedges: int = DEFAULT_MAX_SUPEREDGES) -> None:
    """Reject with ResourceError an ell-fold product of ``edge_count``
    superedges that would exceed ``max_superedges``, and with InputError a
    budget below 1."""
    if max_superedges < 1:
        raise InputError("superedge budget must be >= 1")
    required = edge_count ** ell
    if required > max_superedges:
        raise ResourceError("parallel repetition would exceed the superedge budget",
                            required=required, allowed=max_superedges)


@dataclass(frozen=True)
class Formula3Sat5:
    """3-CNF formula in which every variable occurs in exactly 5 clauses.

    Each clause is a triple of (variable, positive) literals sorted by
    variable index, with distinct variables within a clause.
    """

    var_count: int
    clauses: tuple

    def __post_init__(self):
        n = self.var_count
        check_var_count(n)
        if len(self.clauses) != 5 * n // 3:
            raise InputError(f"expected {5 * n // 3} clauses, got {len(self.clauses)}")
        occurrences = [0] * n
        for clause in self.clauses:
            if len(clause) != 3:
                raise InputError("clauses must have exactly 3 literals")
            variables = [v for v, _ in clause]
            if len(set(variables)) != 3:
                raise InputError("clause variables must be distinct")
            if variables != sorted(variables):
                raise InputError("clause literals must be sorted by variable")
            for v, positive in clause:
                if not 0 <= v < n:
                    raise InputError("variable index out of range")
                if not isinstance(positive, bool):
                    raise InputError("polarity must be a bool")
                occurrences[v] += 1
        bad = [v for v, c in enumerate(occurrences) if c != 5]
        if bad:
            raise InputError(f"variables without exactly 5 occurrences: {bad[:5]}")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def planted_assignment(n_vars: int, seed: int) -> tuple:
    """The assignment a planted run hides, derived from the master seed."""
    stream = Stream(child_seed(seed, "planted"))
    return tuple(stream.randbelow(2) == 1 for _ in range(n_vars))


def gen_3sat5(n_prime: int, seed: int, planted=None) -> Formula3Sat5:
    """Random 3SAT(5) formula, deterministic in (n_prime, seed, planted)."""
    check_var_count(n_prime)
    if planted is not None:
        planted = tuple(bool(b) for b in planted)
        if len(planted) != n_prime:
            raise InputError("planted assignment length must equal the variable count")
    stream = Stream(child_seed(seed, "gen3sat5", n_prime))
    triples = _distinct_triples(n_prime, stream)
    clauses = []
    for triple in triples:
        variables = sorted(triple)
        polarities = [stream.randbelow(2) == 1 for _ in range(3)]
        if planted is not None:
            satisfied = any(planted[v] == p for v, p in zip(variables, polarities))
            if not satisfied:
                flip = stream.randbelow(3)
                polarities[flip] = planted[variables[flip]]
        clauses.append(tuple(zip(variables, polarities)))
    return Formula3Sat5(n_prime, tuple(clauses))


def _distinct_triples(n: int, stream: Stream):
    """Partition 5 slots per variable into triples with distinct members.

    Shuffle all 5n slots, then repeatedly swap one slot of each colliding
    triple with a random slot; reshuffle from scratch if a repair round
    budget runs out.
    """
    clause_count = 5 * n // 3
    for _ in range(MAX_RESTARTS):
        slots = [v for v in range(n) for _ in range(5)]
        stream.shuffle(slots)
        for _ in range(MAX_REPAIR_PASSES):
            clean = True
            for c in range(clause_count):
                base = 3 * c
                if len({slots[base], slots[base + 1], slots[base + 2]}) != 3:
                    clean = False
                    offender = base + stream.randbelow(3)
                    other = stream.randbelow(len(slots))
                    slots[offender], slots[other] = slots[other], slots[offender]
            if clean:
                return [slots[3 * c:3 * c + 3] for c in range(clause_count)]
    raise ResourceError("3SAT(5) configuration model failed to converge",
                        required=MAX_RESTARTS + 1, allowed=MAX_RESTARTS)


def clause_satisfying_bits(clause) -> list:
    """The 7 satisfying bit triples of a clause, in canonical order.

    Bit triples are ordered lexicographically with the lowest-indexed
    variable as the most significant bit; the single falsifying triple is
    skipped, so positions map to clause symbols 0..6.
    """
    falsifying = tuple(0 if positive else 1 for _, positive in clause)
    out = []
    for t in range(8):
        bits = ((t >> 2) & 1, (t >> 1) & 1, t & 1)
        if bits != falsifying:
            out.append(bits)
    return out


def clause_symbol(clause, assignment) -> int:
    """Canonical symbol of the clause assignment induced by a full assignment."""
    bits = tuple(int(bool(assignment[v])) for v, _ in clause)
    table = clause_satisfying_bits(clause)
    try:
        return table.index(bits)
    except ValueError as exc:
        raise InputError("assignment falsifies the clause") from exc


def lc_from_3sat5(formula: Formula3Sat5) -> LabelCoverInstance:
    """Clause-variable Label Cover: |A| = clauses, |B| = variables.

    A-symbols are the 7 satisfying clause assignments, B-symbols the 2
    variable values; each incidence relation pairs a clause symbol with its
    restriction to the variable, so every relation has exactly 7 pairs.
    """
    table: dict[tuple, int] = {}        # one row per distinct relation, at most 2 + 4 + 8
    rel_ids = []
    for clause in formula.clauses:
        bit_rows = clause_satisfying_bits(clause)
        for pos in range(3):
            rel_ids.append(table.setdefault(tuple(bits[pos] for bits in bit_rows), len(table)))
    # Superedges (c, v) come clause by clause, each clause's variables ascending,
    # so they are (a, b)-sorted; row r pairs symbol alpha with bit table[r][alpha].
    rows = len(table)
    return LabelCoverInstance(
        formula.clause_count, formula.var_count, CLAUSE_ALPHABET, VAR_ALPHABET,
        np.repeat(np.arange(formula.clause_count, dtype=np.int64), 3),
        [v for clause in formula.clauses for v, _ in clause], rel_ids,
        (np.arange(rows + 1, dtype=np.int64) * CLAUSE_ALPHABET,
         np.tile(np.arange(CLAUSE_ALPHABET, dtype=np.int64), rows),
         np.array(list(table), dtype=np.int64).reshape(-1)))


def labeling_from_assignment(formula: Formula3Sat5, assignment) -> Labeling:
    """Value-1 labeling of lc_from_3sat5 induced by a satisfying assignment."""
    gamma_a = tuple(clause_symbol(cl, assignment) for cl in formula.clauses)
    gamma_b = tuple(int(bool(b)) for b in assignment)
    return Labeling(gamma_a, gamma_b)


def regularize(lc: LabelCoverInstance, require_sat5_shape: bool = True) -> LabelCoverInstance:
    """Three copies of A, five copies of B, a copy of E between each pair.

    On a 3SAT(5)-shaped input (A-degrees 3, B-degrees 5) the output is
    15-regular with |A'| = |B'| = 5n'.  The construction itself is defined
    for any instance and preserves the optimum exactly; pass
    ``require_sat5_shape=False`` to skip the degree check.
    """
    if require_sat5_shape:
        if lc.edge_count == 0 or (lc.degrees_a() != 3).any() or (lc.degrees_b() != 5).any():
            raise InputError("regularize expects A-degrees 3 and B-degrees 5 "
                             "(pass require_sat5_shape=False to override)")
    ea, eb, rel_ids = lc.edge_arrays()
    # Copy (i, j) of E joins A-copy i to B-copy j; the copies in (i, j) order.
    shape = (3, 5, lc.edge_count)
    new_ea = np.broadcast_to(ea + lc.a_count * np.arange(3)[:, None, None], shape).ravel()
    new_eb = np.broadcast_to(eb + lc.b_count * np.arange(5)[:, None], shape).ravel()
    new_rel = np.broadcast_to(rel_ids, shape).ravel()
    order = np.lexsort((new_eb, new_ea))
    return LabelCoverInstance(
        3 * lc.a_count, 5 * lc.b_count, lc.sigma_a, lc.sigma_b,
        new_ea[order], new_eb[order], new_rel[order], lc.relation_arrays())


def parallel_repetition(lc: LabelCoverInstance, ell: int,
                        max_superedges: int = DEFAULT_MAX_SUPEREDGES) -> LabelCoverInstance:
    """ell-fold product: tuple vertices, tuple symbols, coordinatewise relations.

    Tuples are indexed row-major (first coordinate most significant).  The
    instance is materialized explicitly; exceeding ``max_superedges`` raises
    a ResourceError, and sizes no LC v1 header may declare an InputError,
    before any allocation.
    """
    check_ell(ell)
    check_repetition_budget(lc.edge_count, ell, max_superedges)
    _check_sizes("LC v1 header", lc.a_count ** ell, lc.b_count ** ell, lc.sigma_a ** ell,
                 lc.sigma_b ** ell, lc.edge_count ** ell)
    ea, eb, rel_ids = lc.edge_arrays()
    prod_ea, prod_eb, prod_rel = ea, eb, rel_ids
    table = lc.relation_arrays()
    rows = table[0].size - 1
    sigma_a, sigma_b = lc.sigma_a, lc.sigma_b
    for _ in range(ell - 1):
        prod_ea = (prod_ea[:, None] * np.int64(lc.a_count) + ea[None, :]).ravel()
        prod_eb = (prod_eb[:, None] * np.int64(lc.b_count) + eb[None, :]).ravel()
        pair_key = (prod_rel[:, None] * np.int64(rows) + rel_ids[None, :]).ravel()
        table, prod_rel = _combine_relations(table, lc.relation_arrays(), pair_key, rows,
                                             lc.sigma_a, lc.sigma_b)
        sigma_a *= lc.sigma_a
        sigma_b *= lc.sigma_b
    order = np.lexsort((prod_eb, prod_ea))
    return LabelCoverInstance(
        lc.a_count ** ell, lc.b_count ** ell, sigma_a, sigma_b,
        prod_ea[order], prod_eb[order], prod_rel[order], table)


def _combine_relations(left, right, pair_key, width, sigma_a, sigma_b):
    """Product rows of the CSR tables ``left`` and ``right``, one per distinct
    key ``left row * width + right row``; returns the product table and the
    row of each key.

    Pair (la, lb) of the left row and (ra, rb) of the right row give the
    pair (la * sigma_a + ra, lb * sigma_b + rb), with ``sigma_a`` and
    ``sigma_b`` the right alphabets.  Each left pair meets the whole right
    row, so the product row comes out ordered by (la, lb, ra, rb); one
    lexsort keyed on the row first puts every row in (alpha, beta) order,
    which is (la, ra, lb, rb).
    """
    keys, inverse = np.unique(pair_key, return_inverse=True)
    left_row, right_row = np.divmod(keys, width)
    left_first, right_first = left[0][left_row], right[0][right_row]
    right_size = right[0][right_row + 1] - right_first
    sizes = (left[0][left_row + 1] - left_first) * right_size
    row = np.repeat(np.arange(keys.size, dtype=np.int64), sizes)
    i, j = np.divmod(np.arange(row.size) - (np.cumsum(sizes) - sizes)[row], right_size[row])
    li, ri = left_first[row] + i, right_first[row] + j
    alpha = left[1][li] * np.int64(sigma_a) + right[1][ri]
    beta = left[2][li] * np.int64(sigma_b) + right[2][ri]
    order = np.lexsort((beta, alpha, row))
    return (np.append(0, np.cumsum(sizes)), alpha[order], beta[order]), inverse.astype(np.int64)


def lift_regularize(lc: LabelCoverInstance, lab: Labeling) -> Labeling:
    """Push a labeling of ``lc`` through ``regularize``: one copy per block."""
    lab.check_shape(lc)
    return Labeling(lab.gamma_a * 3, lab.gamma_b * 5)


def lift_repetition(lc: LabelCoverInstance, lab: Labeling, ell: int) -> Labeling:
    """Push a labeling of ``lc`` through ``parallel_repetition``.

    Each vertex tuple takes the tuple of its coordinates' symbols.  Value-1
    labelings stay value 1; in general the lifted value is the ell-th power.
    """
    lab.check_shape(lc)
    check_ell(ell)
    return Labeling(_lift_tuples(lab.gamma_a, lc.sigma_a, ell),
                    _lift_tuples(lab.gamma_b, lc.sigma_b, ell))


def _lift_tuples(gamma, sigma, ell):
    base = np.asarray(gamma, dtype=np.int64)
    lifted = base.copy()
    for _ in range(ell - 1):
        lifted = (lifted[:, None] * np.int64(sigma) + base[None, :]).ravel()
    return tuple(lifted.tolist())


# --- DIMACS-style formula format ---------------------------------------------

def write_formula_text(formula: Formula3Sat5, seed=None, planted=None) -> str:
    planted_str = "none" if planted is None else "".join("1" if b else "0" for b in planted)
    lines = [f"c 3sat5 seed={seed if seed is not None else 'none'} planted={planted_str}",
             f"p cnf {formula.var_count} {formula.clause_count}"]
    for clause in formula.clauses:
        lits = [(v + 1) if positive else -(v + 1) for v, positive in clause]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def parse_formula_text(raw: bytes) -> Formula3Sat5:
    """Parse the DIMACS-style formula text, given as the bytes of its file."""
    var_count = None
    clause_count = None
    clauses = []
    lines, numbers, _ = _head_lines(raw)
    for no, ln in zip(numbers, lines):
        ln = ln.strip()
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            toks = ln.split()
            if len(toks) != 4 or toks[1] != "cnf":
                raise InputError(f"bad problem line: {ln!r}")
            var_count, clause_count = _decimals(toks[2:], f"line {no}")
            continue
        toks = ln.split()
        if toks[-1] != "0" or len(toks) != 4:
            raise InputError(f"expected 3 literals and terminating 0: {ln!r}")
        magnitudes = _decimals([t.removeprefix("-") for t in toks[:3]], f"line {no}")
        lits = [-mag if t.startswith("-") else mag for t, mag in zip(toks, magnitudes)]
        if any(l == 0 for l in lits):
            raise InputError(f"literal 0 inside clause: {ln!r}")
        clause = tuple(sorted((abs(l) - 1, l > 0) for l in lits))
        clauses.append(clause)
    if var_count is None:
        raise InputError("missing problem line")
    if clause_count != len(clauses):
        raise InputError(f"expected {clause_count} clauses, found {len(clauses)}")
    return Formula3Sat5(var_count, tuple(clauses))
