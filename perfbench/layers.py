"""Per-layer metrics of a traced run, derived from the tracer's records.

Every value is per pass over the workload's op list: totals over the
traced passes divided by their number.  ``.s`` is inclusive time of the
named function, ``.calls`` its number of calls (for a generator, of
``next()`` steps), ``self_s`` a layer's self time.
"""

from __future__ import annotations

LAYERS = ("cli", "family", "polytope", "charpair", "cellular", "exactalg")

# private functions traced as counters of delta candidates
PROBES = {"charpair": ("_solve_delta_z", "_solve_delta_gf2")}

MAX_CELL_DEGREE = 7  # per-degree metrics up to the 7-dimensional n = 8 covers


def _nonzeros(matrix) -> int:
    if not isinstance(matrix, (list, tuple)):
        return 0
    return sum(
        len(row) if isinstance(row, dict) else sum(1 for x in row if x)
        for row in matrix
    )


def _count_cells(counters, args, cw) -> None:
    for degree, count in enumerate(cw.cell_counts()):
        counters[f"cells.d{degree}"] += count


OBSERVERS = {
    "polytope.enumerate_vertices": lambda c, args, result: c.update({"vertices": len(result)}),
    "charpair.find_delta_translation": lambda c, args, result: c.update({"search_hits": result is not None}),
    "cellular.build_quotient_complex": _count_cells,
    "cellular.chain_complex": lambda c, args, result: c.update(
        {"boundary_nnz": sum(len(row) for matrix in result.boundaries for row in matrix)}
    ),
    "exactalg.invariant_factors": lambda c, args, result: c.update({"snf_nonzeros": _nonzeros(args[0])}),
    "exactalg.Gf2Matrix.rank": lambda c, args, result: c.update({"gf2_rows": len(args[0].rows)}),
}

# metric prefix -> traced name; each gives <prefix>.s and <prefix>.calls
TIMED = {
    "family.build_family": "family.build_family",
    "family.glue_certificate": "family.glue_certificate",
    "polytope.build_delta_Q": "polytope.build_delta_Q",
    "polytope.iter_isomorphisms": "polytope.SimplePolytope.iter_isomorphisms",
    "charpair.validate": "charpair.validate",
    "charpair.find_delta_translation": "charpair.find_delta_translation",
    "cellular.vertex_indices": "cellular.vertex_indices",
    "cellular.homology_w_rel_boundary": "cellular.homology_w_rel_boundary",
    "cellular.build_quotient_complex": "cellular.build_quotient_complex",
    "cellular.chain_complex": "cellular.chain_complex",
    "cellular.homology": "cellular.homology",
    "exactalg.invariant_factors": "exactalg.invariant_factors",
    "exactalg.gf2_rank": "exactalg.Gf2Matrix.rank",
    "exactalg.rational_inverse": "exactalg.rational_inverse",
    "exactalg.determinant": "exactalg.determinant",
}

SOLVE_CALLERS = ("polytope", "cellular", "charpair")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, passes: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json as {name: (value, unit)}."""
    c = tracer.counters
    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / passes, "s")
    for prefix, name in TIMED.items():
        out[f"{prefix}.s"] = (tracer.incl_s[name] / passes, "s")
        out[f"{prefix}.calls"] = (tracer.calls[name] / passes, "count")

    bases = tracer.by_caller["exactalg.solve_rational", "polytope.enumerate_vertices"][0]
    out["polytope.bases_tried"] = (bases / passes, "count")
    out["polytope.vertex_yield"] = (_ratio(c["vertices"], bases), "ratio")
    out["polytope.bijections_tried"] = (c["polytope.SimplePolytope.iter_isomorphisms.yields"] / passes, "count")

    candidates = tracer.calls["charpair._solve_delta_z"] + tracer.calls["charpair._solve_delta_gf2"]
    out["charpair.delta_candidates"] = (candidates / passes, "count")
    out["charpair.search_yield"] = (_ratio(c["search_hits"], candidates), "ratio")

    total_cells = sum(n for key, n in c.items() if key.startswith("cells.d"))
    out["cellular.cells"] = (total_cells / passes, "count")
    for degree in range(MAX_CELL_DEGREE + 1):
        out[f"cellular.cells.d{degree}"] = (c[f"cells.d{degree}"] / passes, "count")
    out["cellular.sign_solves"] = (tracer.caller_calls("exactalg.solve_rational", "cellular")[0] / passes, "count")
    out["cellular.boundary_nnz"] = (c["boundary_nnz"] / passes, "count")
    out["exactalg.snf_nonzeros"] = (c["snf_nonzeros"] / passes, "count")
    out["exactalg.gf2_rows"] = (c["gf2_rows"] / passes, "count")

    for layer in SOLVE_CALLERS:
        calls, seconds = tracer.caller_calls("exactalg.solve_rational", layer)
        out[f"exactalg.solve_rational.by_{layer}.s"] = (seconds / passes, "s")
        out[f"exactalg.solve_rational.by_{layer}.calls"] = (calls / passes, "count")

    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return out
