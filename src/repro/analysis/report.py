"""Shared report surfaces: ASCII tables, series, and shootout reports.

The benchmark harness prints each reproduced figure or table through
the formatting helpers so the output can be pasted straight into
``EXPERIMENTS.md`` next to the paper's numbers.

The second half of the module is the **unified shootout report API**:
every policy-comparison harness (the DES ``scenario-shootout``, the
live ``live-shootout``, the fault-plane ``chaos-shootout``) emits one
:class:`ShootoutReport` -- columns declared once as :class:`Column`
records, one :class:`PolicyRow` per policy, free-form pre-rendered
``sections``, and the cross-check verdicts recorded through
:func:`check_fail` / :func:`check_pass` in one :class:`CheckLedger`.
Rendering and the schema-versioned ``--json`` serialisation live here,
in one place: each harness's domain report is a :class:`UnifiedReport`
that supplies only its projection, ``unified()``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Version of the ``--json`` payload.  Bump on any key rename or
#: semantic change; consumers (CI smoke jobs, ``bench_gate.py``) pin it.
SCHEMA_VERSION = 1


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("row arity does not match headers")
    cells = [[_format_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def format_series(
    series: Dict[str, List[Tuple[Number, Number]]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Render several named (x, y) series as one aligned table.

    All series must share the same x grid (which figure sweeps do).
    """
    if not series:
        raise ValueError("no series to format")
    names = sorted(series)
    x_grid = [x for x, _y in series[names[0]]]
    for name in names:
        xs = [x for x, _y in series[name]]
        if xs != x_grid:
            raise ValueError(f"series {name!r} has a different x grid")
    headers = [x_label] + [f"{name} {y_label}" for name in names]
    rows = []
    for index, x in enumerate(x_grid):
        rows.append([x] + [series[name][index][1] for name in names])
    return format_table(headers, rows, title=title)


# ----------------------------------------------------------------------
# The unified shootout report API
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Column:
    """One declared report column: stable JSON key + table presentation."""

    #: Stable machine-facing key (snake_case; never renamed without a
    #: :data:`SCHEMA_VERSION` bump).
    key: str
    #: Table header (defaults to the key).
    header: Optional[str] = None
    #: Decimal places in the ASCII table (None: default formatting).
    digits: Optional[int] = None

    @property
    def label(self) -> str:
        return self.header if self.header is not None else self.key

    def cell(self, value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if math.isnan(value):
                return "nan"
            if self.digits is not None:
                return f"{value:.{self.digits}f}"
        return _format_cell(value)


@dataclass
class PolicyRow:
    """One policy's counters, keyed by :class:`Column` keys."""

    policy: str
    values: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str):
        return self.values.get(key)


class CheckLedger:
    """Cross-check verdicts, recorded once.

    ``checks`` (a list field of the subclass) holds one ``{name, ok,
    detail}`` verdict per :func:`check_fail` / :func:`check_pass`;
    ``failures`` and ``ok`` are derived from it, so the rendered text
    and the ``--json`` payload cannot disagree.
    """

    checks: List[Dict[str, Any]]

    @property
    def failures(self) -> List[str]:
        """The failed verdicts' human-readable details, in order."""
        return [check["detail"] for check in self.checks if not check["ok"]]

    @property
    def ok(self) -> bool:
        """True when every cross-check passed."""
        return all(check["ok"] for check in self.checks)


def check_fail(report: CheckLedger, name: str, detail: str) -> None:
    """Record one failed cross-check verdict on a shootout report."""
    report.checks.append({"name": name, "ok": False, "detail": detail})


def check_pass(report: CheckLedger, name: str, detail: str = "") -> None:
    """Record a passed verdict unless ``name`` already failed."""
    if any(check["name"] == name for check in report.checks):
        return
    report.checks.append({"name": name, "ok": True, "detail": detail})


def _jsonify(value):
    """JSON-safe projection: tuples to lists, NaN/inf to None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


@dataclass
class ShootoutReport(CheckLedger):
    """The one result surface every shootout harness emits.

    ``columns`` are declared once per harness; ``rows`` hold one
    :class:`PolicyRow` per policy; ``sections`` are pre-rendered text
    blocks (per-scenario matrices, per-tenant tables, fault schedules)
    appended below the main table; ``checks`` carries every cross-check
    verdict.
    """

    kind: str
    title: str
    columns: List[Column]
    rows: List[PolicyRow]
    meta: Dict[str, Any] = field(default_factory=dict)
    sections: List[str] = field(default_factory=list)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    failure_heading: str = "CROSS-CHECK FAILURES"
    success_line: str = "All cross-checks passed."

    @property
    def policies(self) -> Tuple[str, ...]:
        return tuple(row.policy for row in self.rows)

    def render(self) -> str:
        """The harness's complete plain-text output."""
        headers = ["policy"] + [column.label for column in self.columns]
        cells = [
            [row.policy]
            + [column.cell(row.get(column.key)) for column in self.columns]
            for row in self.rows
        ]
        parts = [format_table(headers, cells, title=self.title)]
        parts.extend(self.sections)
        if self.failures:
            parts.append(
                f"{self.failure_heading}:\n"
                + "\n".join(f"  - {failure}" for failure in self.failures)
            )
        else:
            parts.append(self.success_line)
        return "\n\n".join(parts)

    def to_json(self) -> Dict[str, Any]:
        """The schema-versioned machine interface of every shootout."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "title": self.title,
            "meta": _jsonify(self.meta),
            "columns": [column.key for column in self.columns],
            "policies": list(self.policies),
            "rows": [
                {"policy": row.policy, **_jsonify(row.values)}
                for row in self.rows
            ],
            "checks": _jsonify(self.checks),
            "failures": self.failures,
            "ok": self.ok,
        }

    def save_json(self, path: Union[str, os.PathLike]) -> Path:
        """Write :meth:`to_json` to ``path`` (UTF-8, trailing newline)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


class UnifiedReport(CheckLedger):
    """A harness's domain report: a subclass supplies ``unified()``, its
    projection into one :class:`ShootoutReport`, and renders and
    serialises through it."""

    def render(self) -> str:
        """The harness's complete plain-text output."""
        return self.unified().render()

    def to_json(self) -> Dict[str, Any]:
        return self.unified().to_json()

    def save_json(self, path: Union[str, os.PathLike]) -> Path:
        return self.unified().save_json(path)
