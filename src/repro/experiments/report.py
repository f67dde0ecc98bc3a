"""Plain-text and JSON reporting helpers plus the full-report composite.

The benchmark targets print the same rows/series the paper's figures show;
these helpers keep that formatting in one place.  The ``report``
experiment is a *composite* registry entry: its members (Table 3,
Figs. 4-10, overheads) run in the paper's order against one shared result
cache, so a full paper report costs one sharded sweep per figure the first
time and almost nothing on repeats (``python -m repro run report``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 float_digits: int = 2) -> str:
    """Format a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns]
                for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered))
              for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(widths[i])
                       for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator] + body)


def nested_to_rows(table: Mapping[str, Mapping[str, object]],
                   index_name: str = "workload") -> List[Dict[str, object]]:
    """Turn {row: {column: value}} into a list of flat dict rows."""
    rows: List[Dict[str, object]] = []
    for key, columns in table.items():
        row: Dict[str, object] = {index_name: key}
        row.update(columns)
        rows.append(row)
    return rows


def to_json(data: object, path: Optional[str] = None, indent: int = 2) -> str:
    """Serialize experiment output as JSON (optionally writing a file)."""
    text = json.dumps(data, indent=indent, sort_keys=True, default=str)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _register_report() -> None:
    """Register the composite ``report`` experiment.

    Deferred into a function (called from the package ``__init__`` after
    the member modules are imported) purely to keep this module free of
    import cycles: the registry's formatting hooks import *this* module.
    """
    from repro.experiments.registry import (EXPERIMENT_REGISTRY,
                                            ExperimentDef,
                                            register_experiment)
    if "report" in EXPERIMENT_REGISTRY:
        return
    register_experiment(ExperimentDef(
        name="report",
        title="Full evaluation report (Table 3, Figs. 4-10, overheads)",
        description="Every figure/table of the evaluation section, sharing "
                    "one result cache across the member sweeps.",
        composite=("table3", "fig4", "fig5", "fig7", "fig8", "fig9",
                   "fig10", "overheads"),
    ))
