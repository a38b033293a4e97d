"""Lightweight tabular results.

Every experiment returns an :class:`ExperimentResult` holding one or more
:class:`Table` objects — the same rows and series the corresponding table or
figure in the paper reports — plus free-form notes.  Tables render to plain
text (for the bench harness output) and to CSV (for spreadsheets and plots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


@dataclass
class Table:
    """A titled grid of rows with named columns."""

    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    precision: int = 3

    def add_row(self, *values: Cell) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells but the table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[Cell]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r} in table {self.title!r}") from None
        return [row[index] for row in self.rows]

    def row_by_key(self, key: Cell) -> Optional[List[Cell]]:
        """Find the first row whose first cell equals ``key``."""
        for row in self.rows:
            if row and row[0] == key:
                return row
        return None

    def to_text(self) -> str:
        return format_table(self)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(cell, self.precision) for cell in row))
        return "\n".join(lines)

    def as_dict_rows(self) -> List[Dict[str, Cell]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_dict(self) -> Dict[str, object]:
        """JSON-representable form (NaN-safe: non-finite floats become strings)."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [[_json_cell(cell) for cell in row] for row in self.rows],
            "precision": self.precision,
        }


def _json_cell(value: Cell) -> Cell:
    """Strict-JSON-safe cell: NaN/inf are not valid JSON numbers."""
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return str(value)
    return value


def table_from_dict(data: Dict[str, object]) -> "Table":
    """Rebuild a :class:`Table` from its ``to_dict`` form."""
    table = Table(
        title=str(data["title"]),
        columns=[str(column) for column in data["columns"]],
        precision=int(data.get("precision", 3)),
    )
    for row in data["rows"]:
        table.add_row(*row)
    return table


def format_table(table: Table) -> str:
    """Render a table as aligned plain text."""
    rendered_rows = [
        [_format_cell(cell, table.precision) for cell in row] for row in table.rows
    ]
    widths = [len(column) for column in table.columns]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"== {table.title} =="]
    header = "  ".join(column.ljust(widths[index]) for index, column in enumerate(table.columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """The output of one experiment (one paper table or figure)."""

    experiment_id: str
    description: str
    tables: List[Table] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    scalars: Dict[str, float] = field(default_factory=dict)

    def add_table(self, table: Table) -> Table:
        self.tables.append(table)
        return table

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def table(self, title_fragment: str) -> Table:
        for table in self.tables:
            if title_fragment.lower() in table.title.lower():
                return table
        raise KeyError(f"no table matching {title_fragment!r} in {self.experiment_id}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-representable form of the whole result (see ``Table.to_dict``)."""
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "tables": [table.to_dict() for table in self.tables],
            "scalars": {key: _json_cell(value) for key, value in self.scalars.items()},
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from ``to_dict`` output (or an artifact payload)."""
        result = cls(
            experiment_id=str(data["experiment_id"]),
            description=str(data.get("description", "")),
        )
        for table_data in data.get("tables", []):
            result.add_table(table_from_dict(table_data))
        result.scalars.update(data.get("scalars", {}))
        result.notes.extend(data.get("notes", []))
        return result

    def to_text(self) -> str:
        parts = [f"### {self.experiment_id}: {self.description}"]
        for table in self.tables:
            parts.append(table.to_text())
        if self.scalars:
            parts.append(
                "scalars: "
                + ", ".join(
                    f"{key}={value:.4g}" if isinstance(value, (int, float)) else f"{key}={value}"
                    for key, value in sorted(self.scalars.items())
                )
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)
