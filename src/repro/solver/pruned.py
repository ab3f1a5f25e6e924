"""Orbit symmetry reduction and Farkas-nogood pruning for the zero-set
search (the ``pruned`` engine).

The naive Theorem-3.4 walk (:func:`repro.solver.registry.naive_zero_set_search`)
visits every subset ``Z`` of the class unknowns and solves one exact LP
per subset — ``2^|V_C|`` LPs in the worst case.  Component decomposition
(PR 8) caps the blow-up at the largest island but does nothing *within*
a dense component.  This module prunes inside one component with two
compounding, *sound* levers, while keeping the output byte-identical to
the naive serial walk:

**Orbit reduction.**  Schemas routinely contain interchangeable classes
(k sibling classes with identical cardinality profiles under one root).
Interchangeability shows up in ``Ψ_S`` as an automorphism: a permutation
``σ`` of the unknowns that fixes the class-unknown set and the target
set setwise, maps the dependency relation onto itself, and maps the row
multiset onto itself (labels excluded — provenance does not affect
feasibility).  Such a ``σ`` carries ``Ψ_Z`` onto ``Ψ_{σZ}`` row for row,
so feasibility is orbit-invariant.  Candidate automorphisms are
discovered by Weisfeiler–Leman colour refinement over the columns of
``Ψ_S`` plus individualisation–refinement on same-colour class-unknown
pairs, then **verified exactly** (bijection, setwise class/target
preservation, dependency preservation, row-multiset invariance); a
candidate that fails verification is discarded, so a missed symmetry
costs pruning power, never correctness.  The verified generators are
closed under composition up to a size cap (on overflow the generator
set itself is used — still sound).  Enumeration then visits subsets in
the exact naive serial order but only *canonical* ones: ``Z`` is
canonical iff no known automorphism maps it to a serially-earlier
subset.  Because any feasible ``Z`` has a canonical, serially-no-later
image in its orbit and the serial-first feasible subset is itself
canonical (an earlier image would contradict first-ness), the first
canonical feasible candidate **is** the serial-first feasible candidate
— the same ``Ψ_Z`` is solved, so the witness is byte-identical with no
remapping (DESIGN §15).

**Farkas nogoods.**  Each infeasible candidate yields a dual
infeasibility certificate over the sharpened ``Ψ_Z``, returned by the
very sparse solve that refuted it (one LP per tested candidate).  The
certificate is generalised to the minimal support it actually uses:
the ``Z-zero``/``Z-positive``/``Z-dep`` rows it weights identify a set
``zeros`` that must be pinned to 0 and a set ``positives`` that must
be positive for the same weighted combination to apply (for a
weighted ``Z-dep`` row the serially-earliest zeroed dependency is
recorded, which keeps that row present in any matching candidate).
Any later ``Z'`` with ``zeros ⊆ Z'`` and ``positives ∩ Z' = ∅``
contains every row the certificate weights, so the identical
combination proves ``Ψ_{Z'}`` infeasible and the LP is skipped.  Nogoods only ever match infeasible candidates, so first-hit
semantics and the witness are untouched.  The store saturates as the
walk proceeds — each learned fact prunes all later cousins — and
subsumed (strictly less general) nogoods are dropped on install.

**Reuse across walks.**  ``Ψ_Z`` does not depend on the targets: they
only decide which ``Z`` a walk skips and how the orbit search is
coloured.  So a learned nogood, and the integer witness of a feasible
candidate, hold for every walk over the same system, and the store
also records each solved witness.  A caller may hand one store to
successive walks (the session keeps one per island, DESIGN §15); a
walk that meets a recorded witness answers from it without an LP.

Counters flow through the ambient sink of :mod:`repro.solver.stats`:
``zero_sets_enumerated`` (LP-tested candidates), ``pruned_by_orbit``,
``pruned_by_nogood``, and ``orbits_found`` (non-trivial orbits of the
verified symmetry group acting on the class unknowns).  Budgets are
charged per *tested* representative — skipped cousins cost nothing.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from repro.runtime.budget import current_budget
# ``farkas_certificate`` is re-exported: perfbench's traced run wraps it
# under this module's name (``perfbench/tracing.py``, ``CALL_SITES``).
from repro.solver.certificates import FarkasCertificate, farkas_certificate
from repro.solver.core import InternedSystem, sharpened_rows
from repro.solver.homogeneous import HomogeneousWitness
from repro.solver.linear import LinearSystem
from repro.solver.registry import (
    AcceptabilityProblem,
    positive_witness,
    zero_set_rows,
)
from repro.solver.stats import bump_search_stat

#: Closure size cap: |S_7| = 5040.  Beyond this the verified generators
#: are used unclosed — less pruning, identical answers.
GROUP_CLOSURE_CAP = 5040

#: Cap on individualisation–refinement verification attempts, bounding
#: the polynomial preprocessing on pathologically colour-uniform inputs.
MAX_PAIR_ATTEMPTS = 64


# ---------------------------------------------------------------------------
# Automorphism discovery: WL colour refinement + exact verification
# ---------------------------------------------------------------------------


class _Profile:
    """The refinement view of one acceptability problem.

    Columns are the unknowns of ``Ψ_S``; the structure refined over is
    the row multiset (labels excluded) plus the dependency bipartite
    graph, seeded with the class-unknown / target indicator colours.
    """

    def __init__(self, problem: AcceptabilityProblem) -> None:
        table = problem.system.table
        self.size = problem.system.num_variables
        self.rows = problem.system.rows
        self.class_cols = tuple(table.index(c) for c in problem.class_unknowns)
        class_set = set(self.class_cols)
        target_cols = {
            table.index(c) for c in problem.targets if c in table
        }
        self.dep_of = {
            table.index(rel): tuple(table.index(c) for c in deps)
            for rel, deps in problem.dependencies.items()
        }
        self.initial = [
            f"{int(col in class_set)}:{int(col in target_cols)}"
            for col in range(self.size)
        ]
        # Each row's coefficient strings never change between rounds,
        # so they are rendered once here: ``(relation, const, cells)``
        # with one ``(col, str(coeff), entry prefix)`` cell per entry.
        self.row_cells = [
            (
                row.relation.value,
                str(row.const),
                tuple(
                    (col, str(coeff), f"('r', {str(coeff)!r}, ")
                    for col, coeff in row.items()
                ),
            )
            for row in self.rows
        ]

    @cached_property
    def row_multiset(self) -> Counter:
        """The row multiset (labels excluded), built once per problem
        for :func:`_verify_automorphism` to compare each candidate's
        image against."""
        return Counter(_row_key(row) for row in self.rows)

    def refine(self, seeds: Mapping[int, str] | None = None) -> list[int]:
        """Stable colouring of the columns, optionally individualised.

        Colour identifiers are assigned by sorted signature, so two
        refinement runs over signature-isomorphic seedings produce
        directly comparable colour ids.

        A column's key is the ``repr`` of ``(colour, sorted entries)``,
        each entry an ``('r', coeff, row signature)``, ``('d', colours)``
        or ``('D', colour)`` tuple sorted by its ``repr``.  The key is
        assembled from strings: each row's signature is rendered once
        per round, not once per column it touches, and the keys are
        byte-identical to ``repr`` of those tuples.
        """
        keys = list(self.initial)
        if seeds:
            for col, tag in seeds.items():
                keys[col] = f"{keys[col]}|{tag}"
        colors = _canonical_colors(keys)
        budget = current_budget()
        while True:
            # The partition strictly refines each round, so this runs at
            # most `size` times; the check keeps wall-clock caps honest.
            if budget is not None:
                budget.check()
            sigs: list[list[str]] = [[] for _ in range(self.size)]
            for relation, const, cells in self.row_cells:
                row_sig = repr(
                    (
                        relation,
                        const,
                        tuple(
                            sorted((coeff, colors[col]) for col, coeff, _ in cells)
                        ),
                    )
                )
                for col, _coeff, prefix in cells:
                    sigs[col].append(f"{prefix}{row_sig})")
            for rel_col, dep_cols in self.dep_of.items():
                sigs[rel_col].append(
                    repr(("d", tuple(sorted(colors[col] for col in dep_cols))))
                )
                dep_sig = f"('D', {colors[rel_col]})"
                for col in dep_cols:
                    sigs[col].append(dep_sig)
            refined = _canonical_colors(
                [
                    f"({colors[col]}, [{', '.join(sorted(sigs[col]))}])"
                    for col in range(self.size)
                ]
            )
            if len(set(refined)) == len(set(colors)):
                return refined
            colors = refined


def _canonical_colors(keys: Sequence[str]) -> list[int]:
    """Dense colour ids, assigned in sorted-key order (run-stable)."""
    mapping = {key: index for index, key in enumerate(sorted(set(keys)))}
    return [mapping[key] for key in keys]


def _match_colorings(ca: Sequence[int], cb: Sequence[int]) -> list[int] | None:
    """The colour-class-wise bijection taking colouring ``ca`` to ``cb``.

    Members of each colour class are paired in ascending column order —
    a guess when classes stay non-singleton, which exact verification
    accepts or rejects.
    """
    groups_a: dict[int, list[int]] = defaultdict(list)
    groups_b: dict[int, list[int]] = defaultdict(list)
    for col, color in enumerate(ca):
        groups_a[color].append(col)
    for col, color in enumerate(cb):
        groups_b[color].append(col)
    if {c: len(m) for c, m in groups_a.items()} != {
        c: len(m) for c, m in groups_b.items()
    }:
        return None
    sigma = [0] * len(ca)
    for color in sorted(groups_a):
        for source, image in zip(groups_a[color], groups_b[color]):
            sigma[source] = image
    return sigma


def _row_key(row, perm: Sequence[int] | None = None):
    """A row's identity up to its label, its columns renamed by
    ``perm`` when given."""
    items = (
        row.items()
        if perm is None
        else ((perm[col], coeff) for col, coeff in row.items())
    )
    return (row.relation, row.const, tuple(sorted(items)))


def _verify_automorphism(
    problem: AcceptabilityProblem, profile: _Profile, sigma: Sequence[int]
) -> bool:
    """Exact check that ``sigma`` is an automorphism of the problem.

    Everything the decision depends on must be invariant: the
    class-unknown set and the target set (setwise), the dependency
    relation, and the row multiset (labels excluded).  Rejection is
    always safe — an unverified candidate is simply not used.
    """
    size = profile.size
    if sorted(sigma) != list(range(size)):
        return False
    class_set = set(profile.class_cols)
    if {sigma[col] for col in class_set} != class_set:
        return False
    table = problem.system.table
    target_cols = {table.index(c) for c in problem.targets if c in table}
    if {sigma[col] for col in target_cols} != target_cols:
        return False
    for rel_col, dep_cols in profile.dep_of.items():
        image_deps = profile.dep_of.get(sigma[rel_col])
        if image_deps is None:
            return False
        if {sigma[col] for col in dep_cols} != set(image_deps):
            return False
    return profile.row_multiset == Counter(
        _row_key(row, sigma) for row in profile.rows
    )


def orbit_permutations(
    problem: AcceptabilityProblem,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Verified symmetry permutations over class-unknown *positions*.

    Returns ``(perms, orbits_found)``: permutations of the serial
    enumeration positions (restrictions of verified column
    automorphisms, closed under composition up to
    :data:`GROUP_CLOSURE_CAP`), and the number of non-trivial orbits of
    their action on the class unknowns.
    """
    names = problem.class_unknowns
    if len(names) < 2:
        return (), 0
    profile = _Profile(problem)
    base = profile.refine()
    by_color: dict[int, list[int]] = defaultdict(list)
    for col in profile.class_cols:
        by_color[base[col]].append(col)
    pairs = [
        (members[i], members[j])
        for _, members in sorted(by_color.items())
        if len(members) >= 2
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]
    if not pairs:
        return (), 0

    parent = {col: col for col in profile.class_cols}

    def find(col: int) -> int:
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    generators: list[list[int]] = []
    refinements: dict[int, list[int]] = {}
    for u, v in pairs[:MAX_PAIR_ATTEMPTS]:
        if find(u) == find(v):
            continue  # already connected by a verified generator
        if u not in refinements:
            refinements[u] = profile.refine({u: "pivot"})
        if v not in refinements:
            refinements[v] = profile.refine({v: "pivot"})
        sigma = _match_colorings(refinements[u], refinements[v])
        if sigma is None or not _verify_automorphism(problem, profile, sigma):
            continue
        generators.append(sigma)
        for col in profile.class_cols:
            image = sigma[col]
            root_a, root_b = find(col), find(image)
            if root_a != root_b:
                parent[root_b] = root_a
    if not generators:
        return (), 0
    orbit_sizes = Counter(find(col) for col in profile.class_cols)
    orbits_found = sum(1 for count in orbit_sizes.values() if count >= 2)

    # Restrict column automorphisms to serial positions of the class
    # unknowns (every generator fixes that set setwise, so the
    # restriction is a permutation of positions).
    position = {col: index for index, col in enumerate(profile.class_cols)}
    restricted = {
        tuple(position[sigma[col]] for col in profile.class_cols)
        for sigma in generators
    }
    return _close_permutations(restricted, len(names)), orbits_found


def _close_permutations(
    generators: set[tuple[int, ...]], size: int
) -> tuple[tuple[int, ...], ...]:
    """Composition closure of ``generators``, capped for safety.

    On overflow the (deduplicated) generators are returned unclosed —
    the canonicity filter stays sound with any subset of the true
    symmetry group, it just prunes less.
    """
    identity = tuple(range(size))
    gens = sorted(g for g in generators if g != identity)
    if not gens:
        return ()
    group: set[tuple[int, ...]] = {identity, *gens}
    frontier: list[tuple[int, ...]] = [*gens]
    while frontier:
        next_frontier: list[tuple[int, ...]] = []
        for left in frontier:
            for right in gens:
                composed = tuple(left[right[index]] for index in identity)
                if composed not in group:
                    group.add(composed)
                    if len(group) > GROUP_CLOSURE_CAP:
                        return tuple(gens)
                    next_frontier.append(composed)
        frontier = next_frontier
    group.discard(identity)
    return tuple(sorted(group))


def is_canonical(
    combo: tuple[int, ...], perms: Sequence[tuple[int, ...]]
) -> bool:
    """Whether ``combo`` (ascending positions) is its orbit's serial
    minimum under ``perms``.

    Serial order within a size class is lexicographic on the ascending
    position tuple (the :func:`itertools.combinations` order), so the
    comparison is a plain tuple comparison of sorted images.
    """
    for perm in perms:
        if tuple(sorted(perm[index] for index in combo)) < combo:
            return False
    return True


# ---------------------------------------------------------------------------
# Farkas nogoods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nogood:
    """A generalised infeasibility fact learned from one failed ``Ψ_Z``.

    Any candidate ``Z'`` with ``zeros ⊆ Z'`` and
    ``positives ∩ Z' = ∅`` contains every row ``certificate`` weights
    (with identical content), so the same weighted combination proves
    ``Ψ_{Z'}`` infeasible.  ``source`` is the zero-set the certificate
    was extracted from, kept so the certificate can be re-verified
    against its originating (sharpened) system.
    """

    zeros: frozenset[str]
    positives: frozenset[str]
    source: tuple[str, ...]
    certificate: FarkasCertificate

    def matches(self, zero_set: frozenset[str]) -> bool:
        return self.zeros <= zero_set and not (self.positives & zero_set)


class NogoodStore:
    """Saturating worklist of learned nogoods, plus the integer witness
    of every feasible candidate already solved.

    Matching scans in learn order (deterministic); installing drops
    strictly-less-general entries.  Hit counts and first victims are
    tracked per nogood for ``repro explain --nogoods``.

    Neither kind of fact depends on the walk's targets (``Ψ_Z`` does
    not), so one store can serve every walk over the same problem
    system: a session keeps one per island (:meth:`copy` is what a walk
    works on before publishing it back).
    """

    def __init__(self) -> None:
        self.nogoods: list[Nogood] = []
        self.hits: list[int] = []
        self.first_victims: list[tuple[str, ...] | None] = []
        self.witnesses: dict[frozenset[str], dict[str, int]] = {}

    def copy(self) -> NogoodStore:
        """An independent store holding the same facts and tallies."""
        clone = NogoodStore()
        clone.nogoods = list(self.nogoods)
        clone.hits = list(self.hits)
        clone.first_victims = list(self.first_victims)
        clone.witnesses = dict(self.witnesses)
        return clone

    def match(self, zero_set: frozenset[str]) -> int | None:
        """Index of the first nogood covering ``zero_set``, if any."""
        for index, nogood in enumerate(self.nogoods):
            if nogood.matches(zero_set):
                return index
        return None

    def record_hit(self, index: int, zero_tuple: tuple[str, ...]) -> None:
        self.hits[index] += 1
        if self.first_victims[index] is None:
            self.first_victims[index] = zero_tuple

    def install(self, nogood: Nogood) -> bool:
        """Add ``nogood`` unless an at-least-as-general one is present;
        drop entries the new fact subsumes.  Returns whether it was kept.
        """
        for existing in self.nogoods:
            if (
                existing.zeros <= nogood.zeros
                and existing.positives <= nogood.positives
            ):
                return False
        kept = [
            index
            for index, existing in enumerate(self.nogoods)
            if not (
                nogood.zeros <= existing.zeros
                and nogood.positives <= existing.positives
            )
        ]
        self.nogoods = [self.nogoods[index] for index in kept]
        self.hits = [self.hits[index] for index in kept]
        self.first_victims = [self.first_victims[index] for index in kept]
        self.nogoods.append(nogood)
        self.hits.append(0)
        self.first_victims.append(None)
        return True


def candidate_system(
    problem: AcceptabilityProblem, zero_set: frozenset[str]
) -> InternedSystem:
    """``Ψ_Z`` — the base system plus the Theorem-3.4 zero-set rows."""
    return problem.system.with_rows(zero_set_rows(problem, zero_set))


def nogood_source_system(
    problem: AcceptabilityProblem, nogood: Nogood
) -> LinearSystem:
    """The sharpened originating system of ``nogood``, rebuilt.

    Row order matches the extraction exactly, so the certificate's
    constraint indices (and :meth:`FarkasCertificate.verify` /
    :meth:`~FarkasCertificate.pretty`) line up.
    """
    candidate = candidate_system(problem, frozenset(nogood.source))
    sharp = InternedSystem(candidate.table, tuple(sharpened_rows(candidate)))
    return sharp.to_linear()


_ZERO_PREFIX = "Z-zero:"
_POSITIVE_PREFIX = "Z-positive:"
_DEP_PREFIX = "Z-dep:"


def learn_nogood(
    problem: AcceptabilityProblem,
    zero_set: frozenset[str],
    candidate: InternedSystem,
    certificate: FarkasCertificate | None,
) -> Nogood | None:
    """Generalise a nogood from an infeasible ``Ψ_Z``.

    ``certificate`` is the Farkas proof over the sharpened candidate
    (strict rows become their integer-cone equivalents, row for row)
    that the refuting solve returned; only the zero-set rows it weights
    survive into the nogood, their labels read off ``candidate``.  A
    refutation the kernel could not certify (``None``) teaches nothing,
    and learning is skipped: pruning less is always sound.
    """
    if certificate is None:
        return None
    zeros: set[str] = set()
    positives: set[str] = set()
    rows = candidate.rows
    for index, _weight in certificate.weights:
        label = rows[index].label
        if not label:
            continue
        if label.startswith(_ZERO_PREFIX):
            zeros.add(label[len(_ZERO_PREFIX):])
        elif label.startswith(_POSITIVE_PREFIX):
            positives.add(label[len(_POSITIVE_PREFIX):])
        elif label.startswith(_DEP_PREFIX):
            rel = label[len(_DEP_PREFIX):]
            deps = problem.dependencies.get(rel, ())
            for name in problem.class_unknowns:
                if name in zero_set and name in deps:
                    zeros.add(name)  # keeps this Z-dep row in any match
                    break
    return Nogood(
        zeros=frozenset(zeros),
        positives=frozenset(positives),
        source=tuple(sorted(zero_set)),
        certificate=certificate,
    )


def check_candidate(
    problem: AcceptabilityProblem, zero_set: frozenset[str]
) -> tuple[HomogeneousWitness, Nogood | None]:
    """Test one candidate: solve ``Ψ_Z`` once, and learn the nogood of a
    refuted one from the certificate of that same solve.
    """
    candidate = candidate_system(problem, zero_set)
    witness = positive_witness(candidate)
    if witness.feasible:
        return witness, None
    return witness, learn_nogood(
        problem, zero_set, candidate, witness.certificate
    )


# ---------------------------------------------------------------------------
# The pruned walk
# ---------------------------------------------------------------------------


def pruned_zero_set_search(
    problem: AcceptabilityProblem,
    store: NogoodStore | None = None,
) -> tuple[bool, dict[str, int] | None, frozenset[str]]:
    """The Theorem-3.4 walk with orbit and nogood pruning (serial).

    Same contract and byte-identical output as
    :func:`~repro.solver.registry.naive_zero_set_search` — see the
    module docstring for why pruning cannot change the first hit.
    ``store`` may be supplied to observe the learned nogoods
    (``repro explain``), or to start from the facts of earlier walks
    over the same system: a candidate whose witness the store already
    holds is answered from it without an LP (the same ``Ψ_Z`` solves
    to the same witness).  Ungated: :func:`repro.solver.registry.decide_acceptable`
    applies ``naive_limit``.
    """
    names = list(problem.class_unknowns)
    if store is None:
        store = NogoodStore()
    perms, orbits_found = orbit_permutations(problem)
    bump_search_stat("orbits_found", orbits_found)
    universe = set(names)
    budget = current_budget()
    for size in range(len(names) + 1):
        for combo in combinations(range(len(names)), size):
            if budget is not None:
                budget.check()
            zero_tuple = tuple(names[index] for index in combo)
            zero_set = frozenset(zero_tuple)
            if problem.targets <= zero_set:
                continue  # the required positivity would be impossible
            if perms and not is_canonical(combo, perms):
                bump_search_stat("pruned_by_orbit")
                continue
            matched = store.match(zero_set)
            if matched is not None:
                store.record_hit(matched, zero_tuple)
                bump_search_stat("pruned_by_nogood")
                continue
            integral = store.witnesses.get(zero_set)
            if integral is None:
                bump_search_stat("zero_sets_enumerated")
                witness, learned = check_candidate(problem, zero_set)
                if not witness.feasible:
                    if learned is not None:
                        store.install(learned)
                    continue
                assert witness.integral is not None
                integral = store.witnesses[zero_set] = witness.integral
            support = frozenset(
                name for name, value in integral.items() if value > 0
            )
            assert universe - zero_set <= support
            return True, dict(integral), support
    return False, None, frozenset()


# ---------------------------------------------------------------------------
# Rendering (repro explain --nogoods)
# ---------------------------------------------------------------------------


def render_nogoods(problem: AcceptabilityProblem, store: NogoodStore) -> str:
    """Human-readable account of the learned nogoods, in learn order.

    Each entry names the generalised support, what it eliminated, and
    the full Farkas combination via
    :meth:`~repro.solver.certificates.FarkasCertificate.pretty` against
    the rebuilt source system.
    """
    if not store.nogoods:
        return "no nogoods learned (no infeasible candidate generalised)"
    def braced(names) -> str:
        return "{" + ", ".join(sorted(names)) + "}" if names else "{}"

    blocks: list[str] = []
    for index, nogood in enumerate(store.nogoods):
        victim = store.first_victims[index]
        eliminated = (
            f"eliminated {store.hits[index]} candidate zero-set(s), "
            f"first {braced(victim)}"
            if victim is not None
            else "eliminated 0 candidate zero-set(s)"
        )
        header = (
            f"nogood {index + 1}: Z must contain {braced(nogood.zeros)} "
            f"and avoid {braced(nogood.positives)}\n"
            f"  learned from Z = {braced(nogood.source)}; {eliminated}\n"
            f"  Farkas combination over the sharpened source system:"
        )
        pretty = nogood.certificate.pretty(nogood_source_system(problem, nogood))
        body = "\n".join(f"    {line}" for line in pretty.splitlines())
        blocks.append(f"{header}\n{body}")
    return "\n".join(blocks)


__all__ = [
    "GROUP_CLOSURE_CAP",
    "Nogood",
    "NogoodStore",
    "candidate_system",
    "check_candidate",
    "farkas_certificate",
    "is_canonical",
    "learn_nogood",
    "nogood_source_system",
    "orbit_permutations",
    "pruned_zero_set_search",
    "render_nogoods",
]
