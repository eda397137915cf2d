"""Reading and writing curve tables in the classic allcurves line format.

Each line is `conductor class number [a1,a2,a3,a4,a6] rank torsion`,
whitespace separated.  Ingestion can re-derive the conductor and torsion
order of every row and compare them with the file's own columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .families import torsion_subgroup
from .tate import global_data
from .weierstrass import WeierstrassModel, parse_model

_LINE = re.compile(
    r"^\s*(?P<cond>\d+)\s+(?P<cls>[a-z]+)\s+(?P<num>\d+)\s+"
    r"(?P<ainvs>\[[-0-9,/]+\])\s+(?P<rank>\d+)\s+(?P<tors>\d+)\s*$"
)


@dataclass(frozen=True)
class CurveRow:
    conductor: int
    iso_class: str
    number: int
    model: WeierstrassModel
    rank: int
    torsion_order: int

    @property
    def label(self) -> str:
        return f"{self.conductor}{self.iso_class}{self.number}"


class MalformedLineError(ValueError):
    def __init__(self, lineno: int, column: int, message: str):
        self.lineno = lineno
        self.column = column
        super().__init__(f"line {lineno}, column {column}: {message}")


def parse_allcurves_line(line: str, lineno: int) -> CurveRow:
    m = _LINE.match(line)
    if not m:
        # locate the first offending field for the diagnostic
        fields = line.split()
        col = 1
        for i, want in enumerate(["conductor", "class", "number", "ainvs", "rank", "torsion"]):
            if i >= len(fields):
                raise MalformedLineError(lineno, col, f"missing {want} field")
            ok = {
                0: fields[i].isdigit(),
                1: fields[i].isalpha(),
                2: fields[i].isdigit(),
                3: fields[i].startswith("[") and fields[i].endswith("]"),
                4: fields[i].isdigit(),
                5: fields[i].isdigit(),
            }[i]
            if not ok:
                raise MalformedLineError(lineno, line.find(fields[i]) + 1, f"bad {want} field {fields[i]!r}")
            col = line.find(fields[i]) + len(fields[i]) + 1
        raise MalformedLineError(lineno, 1, "unparseable line")
    try:
        model = parse_model(m["ainvs"])
    except (ValueError, ZeroDivisionError):
        raise MalformedLineError(lineno, m.start("ainvs") + 1, f"bad ainvs field {m['ainvs']!r}") from None
    return CurveRow(
        conductor=int(m["cond"]),
        iso_class=m["cls"],
        number=int(m["num"]),
        model=model,
        rank=int(m["rank"]),
        torsion_order=int(m["tors"]),
    )


def render_allcurves_line(row: CurveRow) -> str:
    return f"{row.conductor} {row.iso_class} {row.number} {row.model} {row.rank} {row.torsion_order}"


def ingest_cremona(path, validate: bool = True) -> dict:
    """Parse an allcurves file into a label-keyed table.

    With validate=True the conductor and torsion order of every row are
    recomputed and compared against the file's columns; a mismatch raises.
    """
    table = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            row = parse_allcurves_line(line, lineno)
            if validate:
                gd = global_data(row.model)
                if gd.conductor != row.conductor:
                    raise ValueError(
                        f"line {lineno} ({row.label}): computed conductor {gd.conductor} != {row.conductor}"
                    )
                tg = torsion_subgroup(row.model)
                if tg.order != row.torsion_order:
                    raise ValueError(
                        f"line {lineno} ({row.label}): computed torsion {tg.order} != {row.torsion_order}"
                    )
            if row.label in table:
                raise ValueError(f"line {lineno}: duplicate label {row.label}")
            table[row.label] = row
    return table
