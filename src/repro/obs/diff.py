"""Run-diff regression attribution.

Given two bottleneck-analysis snapshots (single documents from
:func:`repro.obs.critpath.analyze_result`, or the multi-run files
``repro.analysis.report --analyze`` writes), :func:`diff_analyses`
attributes the cycle delta to the runs (phases of the grid), the
stall/serialization classes of the taxonomy, and the sequencers that
moved -- answering "the run got 18% slower; *where*?" with "memory
stalls on the OMS of dense_mvm/misp:1x8" instead of a number.

Ranking is by absolute delta with the derived ``idle`` class excluded
(idle is the complement of everything else, so it anti-correlates with
every real regression and would always rank near the top).  All
ordering uses ``(-abs(delta), name)`` keys, so the output is
deterministic for a given pair of inputs.
"""

from __future__ import annotations

from repro.obs.critpath import ANALYZE_SCHEMA

__all__ = ["diff_analyses", "format_diff"]

#: schema tag stamped into every diff document
DIFF_SCHEMA = "repro.diff/1"

#: classes excluded from regression ranking: occupancy complements
#: (idle is the remainder of wall time; suspended mirrors the serviced
#: sequencer's own service-class cycles from the waiting side) --
#: both anti-correlate with real regressions and would drown them
_DERIVED = ("idle", "suspended")


def _runs_of(doc: dict, label: str) -> dict[str, dict]:
    """Normalize an input to ``{run key: analysis doc}``.

    Accepts a multi-run ``--analyze`` file (it has a ``runs`` dict) or
    a single analysis document (its ``schema`` is
    ``repro.critpath/1``); anything else is a :class:`ValueError`
    naming the input by ``label``.
    """
    runs = doc.get("runs")
    if isinstance(runs, dict):
        return runs
    if doc.get("schema") != ANALYZE_SCHEMA:
        raise ValueError(f"{label} is not an analysis document")
    system = doc.get("system", "")
    if system and doc.get("config"):
        system = f"{system}:{doc['config']}"
    key = "/".join(p for p in (doc.get("workload", ""), system) if p)
    return {key or "run": doc}


def _classes_of(doc: dict) -> dict[str, int]:
    return doc.get("classes") or {}


def _seq_busy(doc: dict) -> dict[str, int]:
    return {sid: row.get("busy_cycles", 0)
            for sid, row in (doc.get("sequencers") or {}).items()}


def _ranked(deltas: dict[str, tuple[int, int]],
            skip_derived: bool = True) -> list[dict]:
    rows = []
    for name, (va, vb) in deltas.items():
        if skip_derived and name in _DERIVED:
            continue
        if va == 0 and vb == 0:
            continue
        rows.append({"name": name, "a": va, "b": vb, "delta": vb - va})
    rows.sort(key=lambda r: (-abs(r["delta"]), r["name"]))
    return rows


def _merge(a: dict[str, int], b: dict[str, int]) -> dict[str, tuple[int, int]]:
    return {k: (a.get(k, 0), b.get(k, 0)) for k in set(a) | set(b)}


def diff_analyses(a: dict, b: dict, label_a: str = "A",
                  label_b: str = "B") -> dict:
    """Attribute the cycle delta between two analysis snapshots.

    Returns a ``repro.diff/1`` document: totals, per-run deltas ranked
    by magnitude, and -- within each run and overall -- the
    stall-class and sequencer deltas that explain the movement.  An
    input that is neither a multi-run file nor one analysis raises
    :class:`ValueError` naming it by its label.
    """
    runs_a, runs_b = _runs_of(a, label_a), _runs_of(b, label_b)
    shared = sorted(set(runs_a) & set(runs_b))
    total_a = sum(runs_a[k].get("wall_cycles", 0) for k in shared)
    total_b = sum(runs_b[k].get("wall_cycles", 0) for k in shared)

    class_tot: dict[str, tuple[int, int]] = {}
    run_rows = []
    for key in shared:
        da, db = runs_a[key], runs_b[key]
        wa = da.get("wall_cycles", 0)
        wb = db.get("wall_cycles", 0)
        classes = _merge(_classes_of(da), _classes_of(db))
        for name, (va, vb) in classes.items():
            pa, pb = class_tot.get(name, (0, 0))
            class_tot[name] = (pa + va, pb + vb)
        row = {
            "run": key,
            "a": wa,
            "b": wb,
            "delta": wb - wa,
            "ratio": round(wb / wa, 4) if wa else None,
            "classes": _ranked(classes)[:8],
            "sequencers": _ranked(_merge(_seq_busy(da), _seq_busy(db)),
                                  skip_derived=False)[:8],
        }
        run_rows.append(row)
    run_rows.sort(key=lambda r: (-abs(r["delta"]), r["run"]))

    by_class = _ranked(class_tot)
    return {
        "schema": DIFF_SCHEMA,
        "a": {"label": label_a, "total_cycles": total_a},
        "b": {"label": label_b, "total_cycles": total_b},
        "delta_cycles": total_b - total_a,
        "ratio": round(total_b / total_a, 4) if total_a else None,
        "runs": run_rows,
        "by_class": by_class,
        "top_contributor": ({"class": by_class[0]["name"],
                             "delta": by_class[0]["delta"]}
                            if by_class else None),
        "only_a": sorted(set(runs_a) - set(runs_b)),
        "only_b": sorted(set(runs_b) - set(runs_a)),
    }


def _signed(v: int) -> str:
    return f"{v:+,}"


def format_diff(doc: dict) -> str:
    """Render a diff document as a compact human report."""
    a, b = doc["a"], doc["b"]
    lines = [
        f"diff {a['label']} -> {b['label']}: "
        f"{a['total_cycles']:,} -> {b['total_cycles']:,} cycles "
        f"({_signed(doc['delta_cycles'])}"
        + (f", x{doc['ratio']}" if doc["ratio"] is not None else "")
        + ")"
    ]
    top = doc.get("top_contributor")
    if top is not None:
        lines.append(f"  top regressing class: {top['class']} "
                     f"({_signed(top['delta'])} cycles)")
    for row in doc["by_class"][:6]:
        lines.append(f"    {row['name']:<18} {row['a']:>14,} -> "
                     f"{row['b']:>14,}  ({_signed(row['delta'])})")
    for row in doc["runs"][:8]:
        if row["delta"] == 0:
            continue
        cls = row["classes"][0]["name"] if row["classes"] else "-"
        lines.append(f"  {row['run']}: {_signed(row['delta'])} cycles"
                     + (f" (x{row['ratio']})" if row["ratio"] else "")
                     + f", mostly {cls}")
    for key in doc.get("only_a", []):
        lines.append(f"  only in {a['label']}: {key}")
    for key in doc.get("only_b", []):
        lines.append(f"  only in {b['label']}: {key}")
    return "\n".join(lines)
