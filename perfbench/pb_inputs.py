"""Seeded inputs of the four workloads, built only from ``repro``'s public API.

Every generated input derives from the ``--seed`` the benchmark receives:
renaming suffixes, delta-batch members, the tenant order, the read sequence
and the warehouse instance.  The catalogs themselves are
fixed, so the expected verdict of every cell is known from how the catalog is
built (see :mod:`pb_oracle`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import parse_query
from repro.datalog.queries import Query
from repro.workloads import build_view_scenario, build_warehouse, renamed_copy

#: The audit catalog's equivalence classes: cells inside one class are
#: EQUIVALENT, cells across classes NOT_EQUIVALENT.
AUDIT_CLASS_REWRITINGS = "audit"


def build_audit_catalog(tiny: bool = False) -> dict[str, Query]:
    """Candidate rewritings of a returns-audit view (28 queries, 378 cells).

    Every ``audit_NN`` counts, per store, the returned sales that come from a
    premium store or concern a discontinued product, written with literals,
    disjuncts and variable names permuted, so all 24 are pairwise
    equivalent.  ``audit_dup`` duplicates a disjunct (a different count under
    bag semantics), ``audit_keep`` weakens a filter, and ``unit_sum`` /
    ``unit_count`` are equivalent only after sum-of-ones normalization.
    ``tiny`` keeps two of the six renamings (12 queries).
    """
    premium = [
        "returns({s}, {p}), premium_store({s})",
        "premium_store({s}), returns({s}, {p})",
    ]
    discontinued = [
        "returns({s}, {p}), discontinued({p})",
        "discontinued({p}), returns({s}, {p})",
    ]
    renamings = [("s", "p"), ("x", "y"), ("u", "w"), ("a", "b"), ("m", "n"), ("g", "h")]
    if tiny:
        renamings = renamings[:2]
    catalog: dict[str, Query] = {}
    index = 0
    for s, p in renamings:
        for first in premium:
            for second in discontinued:
                index += 1
                text = f"audit({s}, count()) :- {first} ; {second}"
                catalog[f"audit_{index:02d}"] = parse_query(text.format(s=s, p=p))
    catalog["audit_dup"] = parse_query(
        "audit(s, count()) :- returns(s, p), premium_store(s) ; "
        "returns(s, p), premium_store(s) ; returns(s, p), discontinued(p)"
    )
    catalog["audit_keep"] = parse_query(
        "audit(s, count()) :- returns(s, p), premium_store(s) ; returns(s, p)"
    )
    catalog["unit_sum"] = parse_query("units(sum(w)) :- premium_store(s), w = v, v = 1")
    catalog["unit_count"] = parse_query("units(count()) :- premium_store(s)")
    return catalog


def audit_classes(catalog: dict[str, Query]) -> dict[str, str]:
    """The known equivalence class of every audit-catalog query."""
    classes = {}
    for name in catalog:
        if name.startswith("audit_") and name[6:].isdigit():
            classes[name] = AUDIT_CLASS_REWRITINGS
        elif name in ("unit_sum", "unit_count"):
            classes[name] = "units"
        else:
            classes[name] = name
    return classes


@dataclass(frozen=True)
class RenamedCopy:
    """A seeded alpha-renaming of one catalog query (equivalent to it)."""

    name: str
    source: str
    query: Query


def delta_batches(
    catalog: dict[str, Query], rng: random.Random, batches: int, size: int
) -> list[list[RenamedCopy]]:
    """Seeded renamed copies for ``batches`` delta batches of ``size``.

    The seed picks the rewritings, the batch each other query lands in, and
    the renaming suffixes.  Each batch holds one copy of a query outside the
    rewriting class, taken in turn from all of them: the two kinds cost
    different amounts to decide, and a seed-drawn mix would make rounds of
    different seeds do different work."""
    classes = audit_classes(catalog)
    rewritings = sorted(name for name in catalog if classes[name] == AUDIT_CLASS_REWRITINGS)
    others = sorted(name for name in catalog if classes[name] != AUDIT_CLASS_REWRITINGS)
    rng.shuffle(others)
    result = []
    for batch in range(batches):
        sources = [others[batch % len(others)], *rng.sample(rewritings, size - 1)]
        copies = []
        for position, source in enumerate(sources):
            tag = f"b{batch}{position}"
            suffix = f"_{tag}r{rng.randrange(10_000)}"
            copies.append(RenamedCopy(f"{source}_{tag}", source, renamed_copy(catalog[source], suffix)))
        result.append(copies)
    return result


def rewriting_audit_pair(tiny: bool = False) -> tuple[Query, Query, int]:
    """The returns-audit rewriting pair decided by bounded equivalence at
    N=3: a literal reordering, so equivalent, which forces the procedure to
    sweep the whole subset/ordering space.  ``tiny`` drops the negation."""
    if tiny:
        first = parse_query("audit(count()) :- returns(s, p), premium_store(s)")
        second = parse_query("audit(count()) :- premium_store(s), returns(s, p)")
    else:
        first = parse_query(
            "audit(count()) :- returns(s, p), premium_store(s), not discontinued(p)"
        )
        second = parse_query(
            "audit(count()) :- premium_store(s), returns(s, p), not discontinued(p)"
        )
    return first, second, 3


#: The analyst-matrix pairs that are equivalent by construction; every other
#: cell of the 10-query matrix is not.
ANALYST_EQUIVALENT_PAIRS = frozenset(
    {
        ("revenue_per_store", "revenue_per_store_alt"),
        ("sales_count_per_store", "unit_sales_per_store"),
    }
)


def analyst_catalog(tiny: bool = False) -> dict[str, Query]:
    """The warehouse analyst catalog plus the pinned-sum/count pair.
    ``tiny`` keeps the two equivalent pairs and one distractor."""
    catalog = dict(build_warehouse().queries)
    catalog["unit_sales_per_store"] = parse_query("units(s, sum(u)) :- sales(s, p, a), u = 1")
    catalog["sales_count_per_store"] = parse_query("units(s, count()) :- sales(s, p, a)")
    if tiny:
        keep = {name for pair in ANALYST_EQUIVALENT_PAIRS for name in pair} | {"largest_sale"}
        catalog = {name: query for name, query in catalog.items() if name in keep}
    return catalog


def view_scenario(seed: int, tiny: bool = False):
    """The pre-aggregated warehouse: about 20k facts at full size."""
    if tiny:
        return build_view_scenario(stores=4, products=5, sales_per_store=30, seed=seed)
    return build_view_scenario(stores=40, products=25, sales_per_store=600, seed=seed)
