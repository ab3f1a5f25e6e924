"""Interned sparse solver core: the one exact LP kernel behind ``Ψ_S``.

The systems the paper generates (Section 3.2) are *homogeneous with
integer coefficients*, and their unknowns explode with the expansion —
thousands of columns of which each row touches a handful.  Every LP
the library solves — each Theorem-3.4 zero-set test, each
maximal-support probe of the acceptability fixpoint, each Farkas
certificate — runs here, on

* a **variable interning table** (:class:`VariableTable`) mapping the
  pretty string unknowns (``c3``, ``h13``) to dense integer indices —
  strings exist only at the render/explain boundary;
* a **sparse row representation** (:class:`SparseRow`,
  :class:`InternedSystem`) holding ``(column, coefficient)`` pairs of
  exact :data:`Coeff` values: native ``int`` for the paper's integer
  systems, :class:`~fractions.Fraction` only where an input is
  non-integral;
* a **revised sparse simplex** (:func:`solve_interned`): rows are
  column-indexed hash maps, a column→rows occupancy index restricts
  every pivot to the rows actually containing the pivot column, and
  reduced costs live in a sparse map so pricing scans only non-zero
  entries instead of the full column range;
* **fraction-free pivoting** (:class:`_SparseTableau`): every tableau
  row holds ``int`` numerators over one positive ``int`` denominator,
  kept in lowest terms by a gcd only when that denominator is not 1,
  so pivoting never builds a ``Fraction`` (an order of magnitude
  dearer than ``int`` arithmetic); values become ``int`` or
  ``Fraction`` only as they leave the kernel (:func:`_ratio`);
* **Farkas certificates** for free: an infeasible result carries the
  phase-1 dual ray, lifted back through the presolve and verified
  (:func:`_certify`), so proving infeasibility never costs a second LP.

Pivoting is Dantzig's rule with a fall-back to Bland's anti-cycling
rule after a run of degenerate pivots; every pivot is charged to the
ambient budget and every solve fires the ``"simplex"`` fault point.
The differential suite checks the kernel against Fourier–Motzkin
elimination and scipy's HiGHS, and every infeasible answer carries a
certificate that
:meth:`~repro.solver.certificates.FarkasCertificate.verify` re-checks
in plain exact arithmetic.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from repro.errors import SolverError
from repro.runtime.budget import current_budget
from repro.solver.linear import Constraint, LinearSystem, LinExpr, Relation

Coeff = int | Fraction
"""Exact value at the kernel boundary (input rows, objectives, results,
certificates): native ``int`` when integral, ``Fraction`` only when a
value is genuinely non-integral.  The tableau holds none of these; it
works on ``int`` numerators over ``int`` row denominators."""

_FAULT_HOOK: Callable[[], None] | None = None
"""Test seam: when set (by :mod:`repro.runtime.faults`), called with no
arguments at the top of every :func:`solve_interned`; may raise to
simulate a solver fault."""

_DEGENERATE_PIVOT_LIMIT = 40
"""Consecutive degenerate pivots tolerated under the Dantzig rule
before switching to Bland's rule for the rest of the run."""


def _norm(value: Coeff) -> Coeff:
    """Collapse an integral :class:`Fraction` back to ``int`` (for
    values outside the tableau: presolve, objectives, certificates)."""
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _ratio(numerator: int, denominator: int) -> Coeff:
    """Exact ``numerator / denominator`` as an ``int`` when the division
    is exact, else a :class:`Fraction`: how a tableau number leaves the
    kernel."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder == 0:
        return quotient
    return Fraction(numerator, denominator)


def _div(a: Coeff, b: Coeff) -> Coeff:
    """Exact ``a / b`` staying on ``int`` when the division is exact."""
    if isinstance(a, int) and isinstance(b, int):
        return _ratio(a, b)
    return _norm(Fraction(a) / Fraction(b))


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------


class VariableTable:
    """A bijective string ↔ dense-integer interning table.

    Indices are assigned in first-intern order, so a table built from a
    system enumerates its unknowns in declaration order — which keeps
    witnesses and supports deterministic.
    """

    __slots__ = ("_names", "_index")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> int:
        """Index of ``name``, assigning the next free index if new."""
        index = self._index.get(name)
        if index is None:
            index = len(self._names)
            self._index[name] = index
            self._names.append(name)
        return index

    def index(self, name: str) -> int:
        """Index of an already-interned ``name`` (raises if unknown)."""
        try:
            return self._index[name]
        except KeyError:
            raise SolverError(f"unknown variable {name!r}") from None

    def name(self, index: int) -> str:
        return self._names[index]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def copy(self) -> VariableTable:
        clone = VariableTable.__new__(VariableTable)
        clone._names = list(self._names)
        clone._index = dict(self._index)
        return clone

    def __repr__(self) -> str:
        return f"VariableTable({len(self._names)} variables)"


@dataclass(frozen=True)
class SparseRow:
    """One constraint ``Σ coeffs[k] · x[cols[k]] + const REL 0``.

    ``cols`` is strictly increasing and parallel to ``coeffs``; zero
    coefficients are never stored.
    """

    cols: tuple[int, ...]
    coeffs: tuple[Coeff, ...]
    relation: Relation
    const: Coeff = 0
    label: str | None = None
    origin: object = None

    @classmethod
    def make(
        cls,
        entries: Mapping[int, Coeff],
        relation: Relation,
        const: Coeff = 0,
        label: str | None = None,
        origin: object = None,
    ) -> SparseRow:
        cleaned = sorted(
            (col, _norm(value)) for col, value in entries.items() if value != 0
        )
        return cls(
            cols=tuple(col for col, _ in cleaned),
            coeffs=tuple(value for _, value in cleaned),
            relation=relation,
            const=_norm(const),
            label=label,
            origin=origin,
        )

    def items(self) -> Iterable[tuple[int, Coeff]]:
        return zip(self.cols, self.coeffs)

    @property
    def is_homogeneous(self) -> bool:
        return self.const == 0


class InternedSystem:
    """A linear system over interned integer unknowns.

    The canonical internal currency of the solver layer: generated
    directly by :func:`repro.cr.system.build_system`, consumed by the
    sparse simplex and the engine switch, convertible to and from the
    string-keyed :class:`~repro.solver.linear.LinearSystem` at the
    render/explain boundary.
    """

    __slots__ = ("table", "rows")

    def __init__(
        self,
        table: VariableTable | None = None,
        rows: Iterable[SparseRow] = (),
    ) -> None:
        self.table = table if table is not None else VariableTable()
        self.rows: list[SparseRow] = list(rows)

    # -- construction --------------------------------------------------

    def add(
        self,
        entries: Mapping[int, Coeff],
        relation: Relation,
        const: Coeff = 0,
        label: str | None = None,
        origin: object = None,
    ) -> None:
        self.rows.append(SparseRow.make(entries, relation, const, label, origin))

    def add_named(
        self,
        entries: Mapping[str, Coeff],
        relation: Relation,
        const: Coeff = 0,
        label: str | None = None,
        origin: object = None,
    ) -> None:
        """Add a row given by variable *names*, interning as needed."""
        self.add(
            {self.table.intern(name): value for name, value in entries.items()},
            relation,
            const,
            label,
            origin,
        )

    def with_rows(self, extra: Iterable[SparseRow]) -> InternedSystem:
        """A copy with ``extra`` appended; the table is shared (indices
        in ``extra`` must already be interned)."""
        return InternedSystem(self.table, [*self.rows, *extra])

    @classmethod
    def from_linear(
        cls, system: LinearSystem, table: VariableTable | None = None
    ) -> InternedSystem:
        """Intern a string-keyed system (declaration order preserved)."""
        interned = cls(table)
        for name in system.variables:
            interned.table.intern(name)
        for constraint in system.constraints:
            interned.add_named(
                {
                    name: _norm(coeff)
                    for name, coeff in constraint.expr.coefficients.items()
                },
                constraint.relation,
                _norm(constraint.expr.constant_term),
                constraint.label,
                constraint.origin,
            )
        return interned

    def to_linear(self) -> LinearSystem:
        """Project back to the string-keyed form (render/explain only)."""
        system = LinearSystem(variables=self.table.names())
        for row in self.rows:
            system.add(self.constraint(row))
        return system

    def constraint(self, row: SparseRow) -> Constraint:
        """One row in the string-keyed form, as :meth:`to_linear` has it."""
        return Constraint(
            LinExpr(
                {self.table.name(col): Fraction(value) for col, value in row.items()},
                Fraction(row.const),
            ),
            row.relation,
            row.label,
            row.origin,
        )

    # -- inspection ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.table)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def is_homogeneous(self) -> bool:
        return all(row.is_homogeneous for row in self.rows)

    def has_strict_rows(self) -> bool:
        return any(row.relation.is_strict for row in self.rows)

    def nonzeros(self) -> int:
        """Total stored coefficients (the sparsity measure)."""
        return sum(len(row.cols) for row in self.rows)

    def violated_row(self, values: Sequence[Coeff]) -> SparseRow | None:
        """The first row that ``values`` (one per column, in table
        order) violates, or ``None`` when every one holds.

        Each row is read by its own relation, strict ones included.
        With ``int`` values the check runs in ``int`` arithmetic.
        """
        for row in self.rows:
            relation = row.relation
            total = row.const
            for col, coeff in zip(row.cols, row.coeffs):
                total += coeff * values[col]
            if relation is Relation.LE:
                holds = total <= 0
            elif relation is Relation.GE:
                holds = total >= 0
            elif relation is Relation.EQ:
                holds = total == 0
            elif relation is Relation.LT:
                holds = total < 0
            else:
                holds = total > 0
            if not holds:
                return row
        return None

    def __repr__(self) -> str:
        return (
            f"InternedSystem({len(self.rows)} rows, "
            f"{len(self.table)} variables, {self.nonzeros()} nonzeros)"
        )


# ---------------------------------------------------------------------------
# Sparse revised simplex
# ---------------------------------------------------------------------------


class SparseStatus(enum.Enum):
    """Outcome of a sparse simplex run."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SparseResult:
    """Solution report of :func:`solve_interned`.

    ``values`` maps every variable index of the input system to its
    value in the found vertex (``None`` unless ``OPTIMAL``).  When
    ``INFEASIBLE``, ``farkas`` holds verified Farkas weights
    ``(row index, weight)`` over the input rows (see
    :class:`~repro.solver.certificates.FarkasCertificate`).
    """

    status: SparseStatus
    objective_value: Coeff | None
    values: dict[int, Coeff] | None
    farkas: tuple[tuple[int, Coeff], ...] | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status is SparseStatus.OPTIMAL

    def named_values(self, table: VariableTable) -> dict[str, Fraction]:
        """The assignment keyed by pretty names (boundary helper)."""
        assert self.values is not None
        return {
            table.name(index): Fraction(value)
            for index, value in self.values.items()
        }


class _SparseTableau:
    """Fraction-free simplex state on hash-map rows with a column
    occupancy index.

    ``rows[i]`` maps column → non-zero ``int`` numerator and ``rhs[i]``
    is the right-hand side's numerator, both over the positive row
    denominator ``denominators[i]``; the basic column of row ``i`` holds
    exactly ``denominators[i]``.  The reduced costs (``reduced``, a
    sparse map) and the negated objective (``neg_obj``) share one
    positive denominator, ``cost_denominator``.  ``col_rows[j]`` is the
    set of row indices with a non-zero entry in column ``j``; a pivot
    touches only the rows in ``col_rows[pivot_column]`` and, within
    each, only the support of the pivot row.

    Every update is integer-preserving elimination (Edmonds 1967;
    Bareiss 1968; the integer pivoting of Avis's ``lrs``): eliminating
    with a pivot row over ``p`` multiplies the target's denominator by
    ``p``, and a row whose denominator is not 1 is then divided by the
    gcd of its numbers, so it stays in lowest terms.  Pricing compares
    reduced-cost numerators, the ratio test cross-multiplies, and
    :func:`_ratio` turns numbers back into values only where they leave
    the kernel.
    """

    __slots__ = (
        "rows",
        "rhs",
        "denominators",
        "basis",
        "num_columns",
        "col_rows",
        "blocked",
        "reduced",
        "neg_obj",
        "cost_denominator",
    )

    def __init__(
        self,
        rows: list[dict[int, Coeff]],
        rhs: list[Coeff],
        basis: list[int],
        num_columns: int,
    ) -> None:
        """Rows in canonical form (each basic column holds 1 in its own
        row only); ``Fraction`` entries are scaled to numerators over
        the row's least common denominator."""
        self.rows: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.denominators: list[int] = []
        for row, value in zip(rows, rhs):
            denominator = lcm(
                value.denominator, *(entry.denominator for entry in row.values())
            )
            self.rows.append(
                {
                    j: entry.numerator * (denominator // entry.denominator)
                    for j, entry in row.items()
                }
            )
            self.rhs.append(value.numerator * (denominator // value.denominator))
            self.denominators.append(denominator)
        self.basis = basis
        self.num_columns = num_columns
        self.col_rows: dict[int, set[int]] = {}
        for i, row in enumerate(self.rows):
            for j in row:
                self.col_rows.setdefault(j, set()).add(i)
        self.blocked: set[int] = set()
        self.reduced: dict[int, int] = {}
        self.neg_obj = 0
        self.cost_denominator = 1

    # -- pivoting ------------------------------------------------------

    def pivot(self, row_index: int, col_index: int) -> None:
        """Make ``col_index`` basic in ``row_index``; update rows, the
        occupancy index, and the sparse reduced costs."""
        rows = self.rows
        rhs = self.rhs
        denominators = self.denominators
        col_rows = self.col_rows
        pivot_row = rows[row_index]
        scale = pivot_row[col_index]
        if scale == 0:  # pragma: no cover - defensive
            raise SolverError("internal error: pivot on a zero entry")
        pivot_rhs = rhs[row_index]
        # Divided by its pivot entry, the row keeps its numerators over
        # the new denominator ``scale``, made positive and reduced.
        if scale < 0:
            scale = -scale
            pivot_rhs = -pivot_rhs
            pivot_row = {j: -value for j, value in pivot_row.items()}
        if scale != 1:
            common = gcd(scale, pivot_rhs, *pivot_row.values())
            if common != 1:
                scale //= common
                pivot_rhs //= common
                pivot_row = {j: value // common for j, value in pivot_row.items()}
        rows[row_index] = pivot_row
        rhs[row_index] = pivot_rhs
        denominators[row_index] = scale
        entries = pivot_row.items()
        for i in list(col_rows[col_index]):
            if i == row_index:
                continue
            target = rows[i]
            factor = target[col_index]
            target_rhs = rhs[i]
            denominator = denominators[i]
            if scale != 1:
                target = {j: value * scale for j, value in target.items()}
                target_rhs *= scale
                denominator *= scale
            for j, value in entries:
                current = target.get(j)
                if current is None:
                    target[j] = -factor * value
                    col_rows[j].add(i)
                else:
                    updated = current - factor * value
                    if updated:
                        target[j] = updated
                    else:
                        del target[j]
                        col_rows[j].discard(i)
            if pivot_rhs:
                target_rhs -= factor * pivot_rhs
            if denominator != 1:
                common = gcd(denominator, target_rhs, *target.values())
                if common != 1:
                    denominator //= common
                    target_rhs //= common
                    target = {j: value // common for j, value in target.items()}
            rows[i] = target
            rhs[i] = target_rhs
            denominators[i] = denominator
        cost_factor = self.reduced.get(col_index)
        if cost_factor:
            self._price_out(cost_factor, pivot_row, pivot_rhs, scale)
        self.basis[row_index] = col_index

    def _price_out(
        self, factor: int, row: dict[int, int], row_rhs: int, scale: int
    ) -> None:
        """Eliminate a column from the reduced costs and the objective
        with ``row`` over ``scale``, which holds ``scale`` in that
        column; ``factor`` is the column's reduced-cost numerator."""
        reduced = self.reduced
        neg_obj = self.neg_obj
        denominator = self.cost_denominator
        if scale != 1:
            reduced = {j: value * scale for j, value in reduced.items()}
            neg_obj *= scale
            denominator *= scale
        for j, value in row.items():
            updated = reduced.get(j, 0) - factor * value
            if updated:
                reduced[j] = updated
            else:
                del reduced[j]
        neg_obj -= factor * row_rhs
        if denominator != 1:
            common = gcd(denominator, neg_obj, *reduced.values())
            if common != 1:
                denominator //= common
                neg_obj //= common
                reduced = {j: value // common for j, value in reduced.items()}
        self.reduced = reduced
        self.neg_obj = neg_obj
        self.cost_denominator = denominator

    def set_costs(self, cost: Mapping[int, Coeff]) -> None:
        """Initialise the sparse reduced-cost map for ``min cost · x``."""
        denominator = lcm(*(value.denominator for value in cost.values()))
        self.reduced = {
            j: value.numerator * (denominator // value.denominator)
            for j, value in cost.items()
        }
        self.neg_obj = 0
        self.cost_denominator = denominator
        for i, basic in enumerate(self.basis):
            factor = self.reduced.get(basic)
            if factor:
                self._price_out(
                    factor, self.rows[i], self.rhs[i], self.denominators[i]
                )

    def objective(self) -> Coeff:
        return _ratio(-self.neg_obj, self.cost_denominator)

    def reduced_cost(self, col: int) -> Coeff:
        return _ratio(self.reduced.get(col, 0), self.cost_denominator)

    def minimize(
        self, cost: Mapping[int, Coeff], floor: Coeff | None = None
    ) -> tuple[SparseStatus, Coeff]:
        """Simplex iterations minimising ``cost · x``.

        ``floor`` is a value the caller *knows* the objective cannot go
        below; the iteration stops as optimal the moment it is reached.
        This matters on degenerate problems: phase 1 of a homogeneous
        system starts at its optimum (all artificials zero) and would
        otherwise burn many zero-step pivots polishing reduced costs.
        """
        self.set_costs(cost)
        degenerate_run = 0
        use_bland = False
        budget = current_budget()
        rows = self.rows
        rhs = self.rhs
        basis = self.basis
        while True:
            if floor is not None and (
                -self.neg_obj * floor.denominator
                <= floor.numerator * self.cost_denominator
            ):
                return SparseStatus.OPTIMAL, self.objective()
            entering = self._entering_column(use_bland)
            if entering is None:
                return SparseStatus.OPTIMAL, self.objective()
            # Ratio test: the row denominator cancels in rhs / entry, so
            # ratios compare by cross-multiplying numerators.
            leaving: int | None = None
            best_rhs = best_coeff = 0
            for i in self.col_rows.get(entering, ()):
                coeff = rows[i][entering]
                if coeff > 0:
                    value = rhs[i]
                    if leaving is None:
                        better = True
                    else:
                        left = value * best_coeff
                        right = best_rhs * coeff
                        better = left < right or (
                            left == right and basis[i] < basis[leaving]
                        )
                    if better:
                        leaving = i
                        best_rhs = value
                        best_coeff = coeff
            if leaving is None:
                return SparseStatus.UNBOUNDED, self.objective()
            if best_rhs == 0:
                degenerate_run += 1
                if degenerate_run >= _DEGENERATE_PIVOT_LIMIT:
                    use_bland = True
            else:
                degenerate_run = 0
            if budget is not None:
                budget.charge_pivots()
            self.pivot(leaving, entering)

    def _entering_column(self, use_bland: bool) -> int | None:
        blocked = self.blocked
        if use_bland:
            best: int | None = None
            for j, value in self.reduced.items():
                if value < 0 and j not in blocked:
                    if best is None or j < best:
                        best = j
            return best
        best = None
        best_value = 0
        for j, value in self.reduced.items():
            if j in blocked:
                continue
            if value < best_value or (value == best_value != 0 and (best is None or j < best)):
                best = j
                best_value = value
        return best

    def basic_values(self) -> dict[int, Coeff]:
        return {
            basic: _ratio(value, denominator)
            for basic, value, denominator in zip(
                self.basis, self.rhs, self.denominators
            )
        }


# ---------------------------------------------------------------------------
# Presolve
# ---------------------------------------------------------------------------


Pin = tuple[int, int, Coeff]
"""A pinning row as ``(row index, pinned column, its coefficient)``."""


def _presolve_interned(
    rows: Sequence[SparseRow], free: frozenset[int]
) -> tuple[list[tuple[int, SparseRow]], set[int], list[Pin], int | None]:
    """Pinning + triviality reductions, iterated to a fixpoint.

    Two sound rules exploit the implicit non-negativity of the
    variables: a constraint forcing a single non-negative variable to
    zero (``c·x = 0``, ``x ≤ 0``) removes the variable; a constraint
    non-negativity alone guarantees is dropped.  The generated systems
    are full of both (the non-negativity rows of ``Ψ_S``, the
    forced-zero rows of the fixpoint and of Theorem 3.4's ``Ψ_Z``).

    Returns the surviving ``(row index, reduced row)`` pairs, the pinned
    columns, the pinning rows in pin order (what a Farkas certificate
    needs to lift back to ``rows``), and the index of the first row
    whose constant alone violates its relation once its columns are
    pinned away — that row by itself proves infeasibility, so the
    reduction stops there.
    """
    constraints = list(enumerate(rows))
    pinned: set[int] = set()
    pins: list[Pin] = []
    changed = True
    while changed:
        changed = False
        remaining: list[tuple[int, SparseRow]] = []
        for index, row in constraints:
            if pinned and any(col in pinned for col in row.cols):
                entries = {
                    col: value
                    for col, value in row.items()
                    if col not in pinned
                }
                row = SparseRow.make(
                    entries, row.relation, row.const, row.label, row.origin
                )
            relation = row.relation
            if not row.cols:
                if (
                    (relation is Relation.EQ and row.const != 0)
                    or (relation is Relation.LE and row.const > 0)
                    or (relation is Relation.GE and row.const < 0)
                ):
                    return [], pinned, pins, index
                continue  # trivially true
            if len(row.cols) == 1 and row.const == 0:
                col = row.cols[0]
                coeff = row.coeffs[0]
                if col not in free and (
                    relation is Relation.EQ
                    or (relation is Relation.LE and coeff > 0)
                    or (relation is Relation.GE and coeff < 0)
                ):
                    pinned.add(col)
                    pins.append((index, col, coeff))
                    changed = True
                    continue
            if not any(col in free for col in row.cols):
                if (
                    relation is Relation.GE
                    and row.const >= 0
                    and all(value >= 0 for value in row.coeffs)
                ):
                    continue
                if (
                    relation is Relation.LE
                    and row.const <= 0
                    and all(value <= 0 for value in row.coeffs)
                ):
                    continue
            remaining.append((index, row))
        constraints = remaining
    return constraints, pinned, pins, None


# ---------------------------------------------------------------------------
# Farkas certificates from phase 1
# ---------------------------------------------------------------------------


def _combine(
    rows: Sequence[SparseRow],
    weights: Iterable[tuple[int, Coeff]],
    combined: dict[int, Coeff],
) -> Coeff:
    """Add ``Σ weight · row`` into ``combined`` (column → coefficient);
    returns the weighted sum of the row constants."""
    constant: Coeff = 0
    for index, weight in weights:
        row = rows[index]
        for col, coeff in row.items():
            combined[col] = combined.get(col, 0) + weight * coeff
        constant += weight * row.const
    return constant


def _is_farkas(
    rows: Sequence[SparseRow],
    weights: Sequence[tuple[int, Coeff]],
    free: frozenset[int],
) -> bool:
    """Independent exact check of a Farkas certificate over ``rows``.

    Sign conditions (``≤`` rows weigh ``≥ 0``, ``≥`` rows ``≤ 0``, no
    strict rows), a combination with no negative coefficient (and none
    at all on a free column), and a strictly positive constant: every
    feasible point would need the combination ``≤ 0``.
    """
    for index, weight in weights:
        relation = rows[index].relation
        if (
            relation.is_strict
            or (relation is Relation.LE and weight < 0)
            or (relation is Relation.GE and weight > 0)
        ):
            return False
    combined: dict[int, Coeff] = {}
    constant = _combine(rows, weights, combined)
    return constant > 0 and all(
        value >= 0 and (value == 0 or col not in free)
        for col, value in combined.items()
    )


def _certify(
    rows: Sequence[SparseRow],
    weights: dict[int, Coeff],
    pins: Sequence[Pin],
    free: frozenset[int],
) -> SparseResult:
    """The ``INFEASIBLE`` result, with ``weights`` over the presolved
    rows lifted to a verified certificate over ``rows``.

    The reduced rows differ from the originals only in the pinned
    (zero-forced) columns, so the combination over ``rows`` can pick up
    negative coefficients on exactly those; each is cancelled by
    weighting its pinning row with ``-γ/c`` — sign-legal by the pinning
    conditions, and adding nothing to the constant (pinning rows have
    constant 0).  A pinning row was single-column only after earlier
    substitutions, so its patch can reintroduce columns pinned before
    it: walking the pins latest-first makes one pass suffice.  A lift
    that fails verification (a soundness net) leaves ``farkas`` empty.
    """
    combined: dict[int, Coeff] = {}
    _combine(rows, weights.items(), combined)
    for index, col, coeff in reversed(pins):
        gamma = combined.get(col, 0)
        if gamma < 0:
            delta = _div(-gamma, coeff)
            weights[index] = _norm(weights.get(index, 0) + delta)
            _combine(rows, ((index, delta),), combined)
    farkas = tuple(
        sorted((index, weight) for index, weight in weights.items() if weight)
    )
    return SparseResult(
        SparseStatus.INFEASIBLE,
        None,
        None,
        farkas if _is_farkas(rows, farkas, free) else None,
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def solve_interned(
    system: InternedSystem,
    objective: Mapping[int, Coeff] | None = None,
    sense: str = "min",
    free_variables: Iterable[int] = (),
    known_bound: Coeff | None = None,
) -> SparseResult:
    """Solve ``optimise objective subject to system`` exactly, sparsely.

    Strict rows are rejected (sharpen them first:
    :func:`sharpened_rows`), variables are non-negative unless listed
    in ``free_variables`` (split internally into a difference of two
    non-negative columns), and ``known_bound`` is an early-exit
    floor/ceiling the caller can prove.  Unknowns are interned integer
    indices and pivoting runs fraction-free on the sparse tableau.

    An ``INFEASIBLE`` result carries the Farkas certificate phase 1
    proved it with.  Its duals are read off the final reduced costs:
    the slack column of a ``≤`` row, the artificial column of a ``≥``
    or ``=`` row.  They are lifted through the presolve and verified
    (:func:`_certify`).
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK()
    budget = current_budget()
    if budget is not None:
        budget.charge_solver_call()
    if sense not in ("min", "max"):
        raise SolverError(f"sense must be 'min' or 'max', not {sense!r}")
    for row in system.rows:
        if row.relation.is_strict:
            raise SolverError(
                "strict inequalities are not LP constraints; sharpen them "
                "first (repro.solver.core cone helpers)"
            )
    num_vars = system.num_variables
    free = frozenset(free_variables)
    if objective is not None:
        unknown = [index for index in objective if not 0 <= index < num_vars]
        if unknown:
            raise SolverError(
                f"objective uses undeclared variable indices: {sorted(unknown)}"
            )

    presolved, pinned, pins, violated = _presolve_interned(system.rows, free)
    if violated is not None:
        row = system.rows[violated]
        sign = 1 if row.relation is Relation.LE or row.const > 0 else -1
        return _certify(system.rows, {violated: sign}, pins, free)
    if objective is not None and pinned:
        objective = {
            index: value
            for index, value in objective.items()
            if index not in pinned
        }

    # Assign compact internal columns: one per active non-free variable,
    # a (pos, neg) pair per active free variable.
    column_of: dict[int, int] = {}
    neg_column_of: dict[int, int] = {}
    cursor = 0
    for index in range(num_vars):
        if index in pinned:
            continue
        column_of[index] = cursor
        cursor += 1
        if index in free:
            neg_column_of[index] = cursor
            cursor += 1
    num_structural = cursor

    # Standard-form rows with non-negative right-hand sides; ``signs``
    # remembers each row's origin and flip to translate duals back.
    raw_rows: list[tuple[dict[int, Coeff], Relation, Coeff]] = []
    signs: list[tuple[int, int]] = []
    for origin, row in presolved:
        entries: dict[int, Coeff] = {}
        for index, coeff in row.items():
            entries[column_of[index]] = _norm(
                entries.get(column_of[index], 0) + coeff
            )
            if index in free:
                neg_col = neg_column_of[index]
                entries[neg_col] = _norm(entries.get(neg_col, 0) - coeff)
        entries = {col: value for col, value in entries.items() if value != 0}
        rhs = _norm(-row.const)
        relation = row.relation
        sign = 1
        if rhs < 0:
            entries = {col: -value for col, value in entries.items()}
            rhs = -rhs
            relation = relation.flipped()
            sign = -1
        raw_rows.append((entries, relation, rhs))
        signs.append((origin, sign))

    num_slacks = sum(
        1 for _, relation, _ in raw_rows if relation is not Relation.EQ
    )
    num_artificials = sum(
        1 for _, relation, _ in raw_rows if relation is not Relation.LE
    )
    total_columns = num_structural + num_slacks + num_artificials

    rows: list[dict[int, Coeff]] = []
    rhs_values: list[Coeff] = []
    basis: list[int] = []
    artificial_columns: list[int] = []
    dual_columns: list[int] = []
    slack_cursor = num_structural
    artificial_cursor = num_structural + num_slacks
    for entries, relation, rhs in raw_rows:
        row_map = dict(entries)
        dual_columns.append(
            slack_cursor if relation is Relation.LE else artificial_cursor
        )
        if relation is Relation.LE:
            row_map[slack_cursor] = 1
            basis.append(slack_cursor)
            slack_cursor += 1
        elif relation is Relation.GE:
            row_map[slack_cursor] = -1
            slack_cursor += 1
            row_map[artificial_cursor] = 1
            basis.append(artificial_cursor)
            artificial_columns.append(artificial_cursor)
            artificial_cursor += 1
        else:  # EQ
            row_map[artificial_cursor] = 1
            basis.append(artificial_cursor)
            artificial_columns.append(artificial_cursor)
            artificial_cursor += 1
        rows.append(row_map)
        rhs_values.append(rhs)

    tableau = _SparseTableau(rows, rhs_values, basis, total_columns)

    # ---- Phase 1: drive artificials to zero. -------------------------
    if artificial_columns:
        phase1_cost = {col: 1 for col in artificial_columns}
        status, value = tableau.minimize(phase1_cost, floor=0)
        if status is not SparseStatus.OPTIMAL or value > 0:
            weights: dict[int, Coeff] = {}
            for (origin, sign), col in zip(signs, dual_columns):
                dual = phase1_cost.get(col, 0) - tableau.reduced_cost(col)
                if dual:
                    weights[origin] = _norm(-dual * sign)
            return _certify(system.rows, weights, pins, free)
        _evict_basic_artificials(
            tableau, set(artificial_columns), num_structural + num_slacks
        )
        tableau.blocked.update(artificial_columns)

    # ---- Phase 2: optimise the real objective. ------------------------
    if objective is None:
        cost: dict[int, Coeff] = {}
        flip = False
        floor: Coeff | None = 0  # feasibility only: nothing to improve
    else:
        flip = sense == "max"
        cost = {}
        for index, coeff in objective.items():
            signed = -coeff if flip else coeff
            col = column_of[index]
            cost[col] = _norm(cost.get(col, 0) + signed)
            if index in free:
                neg_col = neg_column_of[index]
                cost[neg_col] = _norm(cost.get(neg_col, 0) - signed)
        cost = {col: value for col, value in cost.items() if value != 0}
        if known_bound is None:
            floor = None
        else:
            floor = _norm(known_bound)
            if flip:
                floor = -floor

    status, value = tableau.minimize(cost, floor=floor)
    if status is SparseStatus.UNBOUNDED:
        return SparseResult(SparseStatus.UNBOUNDED, None, None)

    basic = tableau.basic_values()
    values: dict[int, Coeff] = {}
    for index in range(num_vars):
        if index in pinned:
            values[index] = 0
        elif index in free:
            positive = basic.get(column_of[index], 0)
            negative = basic.get(neg_column_of[index], 0)
            values[index] = _norm(positive - negative)
        else:
            values[index] = basic.get(column_of[index], 0)

    objective_value = _norm(-value if flip else value)
    return SparseResult(SparseStatus.OPTIMAL, objective_value, values)


def _evict_basic_artificials(
    tableau: _SparseTableau, artificial_columns: set[int], num_real_columns: int
) -> None:
    """Pivot zero-valued artificials out of the basis.

    After a successful phase 1 every artificial is zero; one still basic
    sits in a degenerate row and is pivoted out on any real column with
    a non-zero entry.  A row that is zero outside the artificials is
    redundant: leaving its artificial basic at value zero is sound once
    the column is blocked from re-entering.
    """
    tableau.set_costs({})
    budget = current_budget()
    for i in range(len(tableau.rows)):
        if tableau.basis[i] not in artificial_columns:
            continue
        replacement = min(
            (j for j in tableau.rows[i] if j < num_real_columns),
            default=None,
        )
        if replacement is not None:
            if budget is not None:
                budget.charge_pivots()
            tableau.pivot(i, replacement)


# ---------------------------------------------------------------------------
# Homogeneous helpers on the interned form (cone scaling, supports)
# ---------------------------------------------------------------------------


def _require_homogeneous(system: InternedSystem) -> None:
    if not system.is_homogeneous():
        raise SolverError(
            "this routine requires a homogeneous system; some row has a "
            "non-zero constant term"
        )


def sharpened_rows(system: InternedSystem) -> list[SparseRow]:
    """Strict homogeneous rows rewritten as non-strict LP rows.

    ``e > 0`` becomes ``e ≥ 1`` and ``e < 0`` becomes ``e ≤ −1``;
    sound for homogeneous systems by cone scaling: any positive
    multiple of a solution is a solution.
    """
    result: list[SparseRow] = []
    for row in system.rows:
        if row.relation is Relation.GT:
            result.append(
                SparseRow(
                    row.cols, row.coeffs, Relation.GE, -1, row.label, row.origin
                )
            )
        elif row.relation is Relation.LT:
            result.append(
                SparseRow(
                    row.cols, row.coeffs, Relation.LE, 1, row.label, row.origin
                )
            )
        else:
            result.append(row)
    return result


def solve_positive(system: InternedSystem) -> SparseResult:
    """Decide a homogeneous interned system that may contain strict rows.

    The rows are sharpened (:func:`sharpened_rows`) one for one, so the
    certificate of an infeasible result indexes ``system.rows`` too;
    :meth:`SparseResult.named_values` gives a feasible witness in the
    string-keyed boundary form.
    """
    _require_homogeneous(system)
    return solve_interned(InternedSystem(system.table, sharpened_rows(system)))


def interned_maximal_support(
    system: InternedSystem,
    candidates: Iterable[str],
) -> tuple[frozenset[str], dict[str, Fraction]]:
    """The largest set of ``candidates`` simultaneously positive.

    ``system`` is homogeneous and non-strict.  Returns
    ``(support, solution)``: ``support`` is exactly the set of unknowns
    positive in ``solution`` (keyed by name), and for every candidate
    membership is definitive — no solution makes a candidate outside
    ``support`` positive.  Unknowns that are not candidates may be
    positive in the witness as a side effect.

    Correctness rests on the cone structure: if ``x`` and ``y`` are
    solutions so is ``x + y``, whose support is the union — so there is
    a unique maximal support ``S*``, readable off a *single* LP.  Each
    candidate gets a capped shadow ``0 ≤ t_v ≤ x_v``, ``t_v ≤ 1``, and
    ``Σ t_v`` is maximised: scaling a full-support cone point up shows
    the optimum is ``|S* ∩ candidates|`` (the early-exit ceiling), and
    any ``t_v > 0`` forces ``x_v > 0``.  Shadows are fresh columns of a
    copy of the table, so the caller's table stays clean, and the
    witness is translated back to names only on return.
    """
    _require_homogeneous(system)
    if system.has_strict_rows():
        raise SolverError(
            "maximal support expects a non-strict system; express "
            "positivity requirements through the probe instead"
        )
    table = system.table.copy()
    probe_indices = [table.index(name) for name in candidates]
    capped = InternedSystem(table, list(system.rows))
    objective: dict[int, Coeff] = {}
    for index in probe_indices:
        shadow = table.intern(f"t#{table.name(index)}")
        capped.add({shadow: 1, index: -1}, Relation.LE)
        capped.add({shadow: 1}, Relation.LE, -1)
        objective[shadow] = 1
    result = solve_interned(
        capped, objective=objective, sense="max", known_bound=len(probe_indices)
    )
    if not result.is_feasible:  # pragma: no cover - x = 0 is always feasible
        raise SolverError(
            "internal error: homogeneous system reported infeasible"
        )
    assert result.values is not None
    num_original = system.num_variables
    solution = {
        system.table.name(index): Fraction(result.values[index])
        for index in range(num_original)
    }
    support = frozenset(
        name for name, value in solution.items() if value > 0
    )
    return support, solution


__all__ = [
    "Coeff",
    "InternedSystem",
    "SparseResult",
    "SparseRow",
    "SparseStatus",
    "VariableTable",
    "interned_maximal_support",
    "sharpened_rows",
    "solve_interned",
    "solve_positive",
    "_SparseTableau",
]
