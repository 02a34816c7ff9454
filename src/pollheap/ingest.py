"""Flat-file ingestion of election exports via declarative column maps.

Exports from different countries disagree on column order, naming, and
even on what "given ballots" means (some publish it directly, some as a
sum of invalid/empty/valid counts). A ColumnMapping describes how to
assemble the four canonical counts from the source columns; a
CountryProfile bundles a mapping with documentation. Rows are read in
bounded blocks so national-scale files need bounded memory; each count
column of a block is checked and converted in one step, and only cells
that fail the column check are parsed one at a time. Each bad row gets
one fault, the message of its first failing check.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .model import MAX_COUNT, ElectionDataset

__all__ = [
    "ColumnMapping",
    "CountryProfile",
    "IngestReport",
    "Discrepancy",
    "SchemaError",
    "PROFILES",
    "CANONICAL_FIELDS",
    "load_dataset",
    "load_reference",
    "verify_subtotals",
    "write_canonical_tsv",
]

CANONICAL_FIELDS = (
    "station_id",
    "region_code",
    "constituency_id",
    "registered",
    "given",
    "cast",
    "leader",
)
COUNT_FIELDS = ("registered", "given", "cast", "leader")

# How many row-level error messages to keep verbatim; counts are always
# complete even when messages are truncated.
MAX_RECORDED_ERRORS = 50

# csv records read and checked at once by load_dataset; a block's rows,
# columns and scratch arrays are its only per-row state besides the
# accepted output. Larger blocks are no faster, and the interpreter
# keeps the memory a block's cell strings took: after loading 20k
# stations, RSS was the row loop's at 1024 rows, 2.7 MB above it at
# 4096 and 8.4 MB above it at 65536.
_BLOCK_ROWS = 1024

# A plain ASCII digit string no longer than MAX_COUNT's fits int64.
_SHORT_COUNT = len(str(MAX_COUNT))


class SchemaError(ValueError):
    """The file's columns cannot satisfy the mapping."""


@dataclass(frozen=True)
class ColumnMapping:
    """Declarative recipe mapping source columns to canonical fields.

    columns maps a canonical field to a source column, by header name
    (when has_header) or by zero-based index. derived maps a count
    field to a tuple of source columns whose integer values are summed,
    for exports that publish components instead of totals. A field may
    appear in columns or derived, not both. station_id and the four
    counts must be resolvable; region_code and constituency_id are
    optional and default to "ALL" and "".
    """

    delimiter: str = "\t"
    has_header: bool = True
    columns: Mapping[str, str | int] = field(default_factory=dict)
    derived: Mapping[str, tuple[str | int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in list(self.columns) + list(self.derived):
            if name not in CANONICAL_FIELDS:
                raise SchemaError(f"unknown canonical field {name!r} in mapping")
        both = set(self.columns) & set(self.derived)
        if both:
            raise SchemaError(f"fields mapped twice: {sorted(both)}")
        for name in ("station_id", *COUNT_FIELDS):
            if name not in self.columns and name not in self.derived:
                raise SchemaError(f"mapping does not resolve required field {name!r}")
        if "station_id" in self.derived:
            raise SchemaError("station_id cannot be a derived sum")


@dataclass(frozen=True)
class CountryProfile:
    name: str
    mapping: ColumnMapping
    notes: str = ""


def _canonical_mapping() -> ColumnMapping:
    return ColumnMapping(
        delimiter="\t",
        has_header=True,
        columns={name: name for name in CANONICAL_FIELDS},
    )


# Built-in profiles. The canonical profile is this package's own TSV
# format; the other three are editable templates whose column names
# follow the typical published exports. Semantics per country:
# given = all ballots handed out, cast = ballots in the box that count
# toward the result denominator.
PROFILES: dict[str, CountryProfile] = {
    "canonical": CountryProfile(
        name="canonical",
        mapping=_canonical_mapping(),
        notes="Native TSV: station_id, region_code, constituency_id, "
        "registered, given, cast, leader.",
    ),
    "ru": CountryProfile(
        name="ru",
        mapping=_canonical_mapping(),
        notes="Russian federal exports flattened to the canonical layout; "
        "given = ballots issued anywhere (early, at home, at station), "
        "cast = ballots found in boxes, leader = winner's votes.",
    ),
    "es": CountryProfile(
        name="es",
        mapping=ColumnMapping(
            delimiter="\t",
            has_header=True,
            columns={
                "station_id": "mesa_id",
                "region_code": "provincia",
                "registered": "censo",
                "leader": "votos_lider",
            },
            derived={
                # given = invalid + empty + valid; cast = empty + valid
                "given": ("votos_nulos", "votos_blanco", "votos_validos"),
                "cast": ("votos_blanco", "votos_validos"),
            },
        ),
        notes="Spanish congressional exports publish invalid/blank/valid "
        "components; totals are assembled by summation.",
    ),
    "de": CountryProfile(
        name="de",
        mapping=ColumnMapping(
            delimiter="\t",
            has_header=True,
            columns={
                "station_id": "bezirk_id",
                "region_code": "land",
                "registered": "wahlberechtigte",
                "leader": "stimmen_sieger",
            },
            derived={
                # given = invalid + valid; cast = valid (second votes)
                "given": ("ungueltige", "gueltige"),
                "cast": ("gueltige",),
            },
        ),
        notes="German federal exports; districts lacking the registered "
        "count (mail-only districts) fail integer parsing and are "
        "skipped as invalid rows.",
    ),
    "pl": CountryProfile(
        name="pl",
        mapping=ColumnMapping(
            delimiter="\t",
            has_header=True,
            columns={
                "station_id": "obwod_id",
                "region_code": "wojewodztwo",
                "registered": "uprawnieni",
                "given": "karty_wydane",
                "leader": "glosy_lider",
            },
            derived={
                "cast": ("glosy_wazne",),
            },
        ),
        notes="Polish exports publish given ballots directly; the result "
        "denominator is the valid-vote count.",
    ),
}


@dataclass
class IngestReport:
    """Row accounting for one load.

    parsed counts the accepted data rows and skipped the rejected ones;
    errors keeps the first MAX_RECORDED_ERRORS of their messages, and
    invalid always equals skipped. Blank rows, empty or holding only
    delimiters and whitespace, are dropped and counted in neither, so
    parsed + skipped is the data rows less the blank ones.
    """

    path: str
    profile: str
    parsed: int = 0
    skipped: int = 0
    invalid: int = 0
    errors: list[str] = field(default_factory=list)

    def record_error(self, line_no: int, message: str) -> None:
        self.invalid += 1
        self.skipped += 1
        if len(self.errors) < MAX_RECORDED_ERRORS:
            self.errors.append(f"line {line_no}: {message}")


def _resolve_indices(
    mapping: ColumnMapping, header: Sequence[str] | None, width: int
) -> dict[str, tuple[int, ...]]:
    """Map each canonical field to the source column indices feeding it."""

    def locate(col: str | int, for_field: str) -> int:
        if isinstance(col, int):
            if col >= width or col < 0:
                raise SchemaError(
                    f"field {for_field!r}: column index {col} outside "
                    f"0..{width - 1}"
                )
            return col
        if header is None:
            raise SchemaError(
                f"field {for_field!r}: named column {col!r} requires a header row"
            )
        if header.count(col) > 1:
            raise SchemaError(f"field {for_field!r}: column {col!r} repeats in the header")
        try:
            return header.index(col)
        except ValueError:
            raise SchemaError(
                f"field {for_field!r}: column {col!r} not in header {header}"
            ) from None

    out: dict[str, tuple[int, ...]] = {}
    for name, col in mapping.columns.items():
        out[name] = (locate(col, name),)
    for name, cols in mapping.derived.items():
        out[name] = tuple(locate(c, name) for c in cols)
    return out


def _parse_count(cell: str) -> int:
    s = cell.strip()
    # ASCII digits only: no signs, no separators, no locale surprises
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a plain integer: {cell!r}")
    # int() refuses over 4300 digits, so leading zeros go first
    digits = s.lstrip("0") or "0"
    if len(digits) > _SHORT_COUNT or int(digits) > MAX_COUNT:
        raise ValueError(f"count above {MAX_COUNT}: {cell!r}")
    return int(digits)


@dataclass(frozen=True)
class _Layout:
    """Where each field of a row lives, resolved once per file."""

    station_id: int
    region_code: int | None
    constituency_id: int | None
    counts: tuple[tuple[str, tuple[int, ...]], ...]  # mapping order
    used: frozenset[int]  # every column index any field reads
    needed: int  # the largest of them

    @classmethod
    def of(cls, indices: Mapping[str, tuple[int, ...]]) -> "_Layout":
        used = frozenset(i for cols in indices.values() for i in cols)
        return cls(
            station_id=indices["station_id"][0],
            region_code=indices["region_code"][0] if "region_code" in indices else None,
            constituency_id=(
                indices["constituency_id"][0] if "constituency_id" in indices else None
            ),
            counts=tuple(
                (name, cols) for name, cols in indices.items() if name in COUNT_FIELDS
            ),
            used=used,
            needed=max(used),
        )


def _count_column(col: list[str], faults: dict[int, str]) -> np.ndarray:
    """One count column of a block as int64.

    A column of short plain ASCII integers is converted at once; only
    cells that fail that check go through _parse_count, one at a time,
    and a cell it refuses reads 0. A refused cell, or one above
    MAX_COUNT, gives its row a fault unless the row has one already.
    Every value is below 10 * MAX_COUNT, so sums of columns cannot wrap.
    """
    joined = "".join(col)
    if not (
        joined.isascii()
        and joined.isdigit()
        and "" not in col
        and max(map(len, col)) <= _SHORT_COUNT
    ):
        col = list(col)
        for j, cell in enumerate(col):
            if not (cell.isascii() and cell.isdigit() and len(cell) <= _SHORT_COUNT):
                try:
                    col[j] = str(_parse_count(cell))
                except ValueError as exc:
                    faults.setdefault(j, str(exc))
                    col[j] = "0"
    values = np.array(col, dtype=np.int64)
    for j in np.flatnonzero(values > MAX_COUNT).tolist():
        faults.setdefault(j, f"count above {MAX_COUNT}: {col[j]!r}")
    return values


def _read_block(
    rows: list[list[str]],
    first_line: int,
    layout: _Layout,
    seen: set[str],
    names: dict[str, str],
    report: IngestReport,
) -> tuple[list[str], list[str], list[str], dict[str, np.ndarray]]:
    """Accepted ids, regions, constituencies and counts of one block.

    Rows are csv records from line first_line on. Each row's first
    failing check gives it one fault, keyed by its position in the
    block: too few cells (the row is then padded with empty cells and
    read like the rest), a count cell, a field sum, then its station
    id. Faults of non-blank rows are recorded in line order, blank
    rows are dropped silently, and accepted ids enter seen. A region
    code or constituency id is the one str object names holds for its
    text, so each distinct code is stored once however many stations
    carry it.
    """
    faults: dict[int, str] = {}
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    for j in np.flatnonzero(widths <= layout.needed).tolist():
        faults[j] = f"expected at least {layout.needed + 1} columns, got {len(rows[j])}"
        rows[j] = rows[j] + [""] * (layout.needed + 1 - len(rows[j]))

    columns = {i: [row[i] for row in rows] for i in layout.used}
    source: dict[int, np.ndarray] = {}
    values: dict[str, np.ndarray] = {}
    for name, cols in layout.counts:
        for i in cols:
            if i not in source:
                source[i] = _count_column(columns[i], faults)
        values[name] = sum(source[i] for i in cols)
        for j in np.flatnonzero(values[name] > MAX_COUNT).tolist():
            faults.setdefault(j, f"{name} sum above {MAX_COUNT}: {values[name][j]}")

    sids = list(map(str.strip, columns[layout.station_id]))
    for j, sid in enumerate(sids):
        if j in faults:
            continue
        if not sid:
            faults[j] = "empty station_id"
        elif sid in seen:
            faults[j] = f"duplicate station_id {sid!r}"
        else:
            seen.add(sid)

    # a blank row always has a fault: its count cells hold no digits
    for j in sorted(faults):
        if "".join(rows[j]).strip():
            report.record_error(first_line + j, faults[j])
    accept = np.ones(len(rows), dtype=bool)
    accept[list(faults)] = False
    keep = np.flatnonzero(accept).tolist()
    report.parsed += len(keep)

    def take(cells: Sequence[str]) -> list[str]:
        return [cells[j] for j in keep]

    regions = ["ALL"] * len(keep)
    if layout.region_code is not None:
        regions = [c.strip() or "ALL" for c in take(columns[layout.region_code])]
        regions = [names.setdefault(c, c) for c in regions]
    constituencies = [""] * len(keep)
    if layout.constituency_id is not None:
        constituencies = [names.setdefault(c, c) for c in
                          map(str.strip, take(columns[layout.constituency_id]))]
    counts = {name: values[name][accept] for name in COUNT_FIELDS}
    return take(sids), regions, constituencies, counts


def load_dataset(
    path: str | Path,
    profile: CountryProfile | str = "canonical",
    label: str | None = None,
) -> tuple[ElectionDataset, IngestReport]:
    """Parse one delimited export into an ElectionDataset.

    Malformed rows (missing cells, non-integer counts, counts or sums
    above model.MAX_COUNT, duplicate station ids) are skipped and
    tallied in the IngestReport; schema problems (missing columns)
    raise SchemaError instead, because no row could ever parse. Line
    numbers count csv records, blank ones included.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise SchemaError(
                f"unknown profile {profile!r}; built-ins: {sorted(PROFILES)}"
            ) from None
    mapping = profile.mapping
    path = Path(path)
    report = IngestReport(path=str(path), profile=profile.name)

    ids: list[str] = []
    regions: list[str] = []
    constituencies: list[str] = []
    counts = {name: [np.zeros(0, dtype=np.int64)] for name in COUNT_FIELDS}
    seen: set[str] = set()
    names: dict[str, str] = {}

    # utf-8-sig: spreadsheet exports often begin with a byte-order mark
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=mapping.delimiter)
        line_no = 0
        first = None
        for line_no, row in enumerate(reader, start=1):
            if "".join(row).strip():
                first = row
                break
        rows: Iterator[list[str]] = iter(())
        if first is None:
            if mapping.has_header:
                raise SchemaError(f"{path}: no header row found")
        elif mapping.has_header:
            header = [cell.strip() for cell in first]
            layout = _Layout.of(_resolve_indices(mapping, header, len(header)))
            rows, line_no = reader, line_no + 1
        else:
            layout = _Layout.of(_resolve_indices(mapping, None, len(first)))
            rows = itertools.chain([first], reader)

        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            block_ids, block_regions, block_constituencies, block_counts = _read_block(
                block, line_no, layout, seen, names, report
            )
            ids += block_ids
            regions += block_regions
            constituencies += block_constituencies
            for name in COUNT_FIELDS:
                counts[name].append(block_counts[name])
            line_no += len(block)

    dataset = ElectionDataset(
        label=label if label is not None else path.stem,
        station_ids=tuple(ids),
        region_codes=tuple(regions),
        constituency_ids=tuple(constituencies),
        registered=np.concatenate(counts["registered"]),
        given=np.concatenate(counts["given"]),
        cast=np.concatenate(counts["cast"]),
        leader=np.concatenate(counts["leader"]),
    )
    return dataset, report


@dataclass(frozen=True)
class Discrepancy:
    """One mismatch between a dataset and reference subtotals.

    actual is None when the reference names a region absent from the
    dataset (the unmatched case).
    """

    region_code: str
    field: str
    expected: int
    actual: int | None


def load_reference(path: str | Path) -> dict[str, dict[str, int]]:
    """Read a JSON file of per-region reference totals for verify_subtotals.

    The file must hold an object mapping region codes to objects whose
    keys are count fields and whose values are non-negative integers.
    Anything else raises SchemaError, so a misspelled field or a
    fractional, quoted or boolean total cannot pass unnoticed.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SchemaError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(reference, dict):
        raise SchemaError(f"{path}: reference must be an object keyed by region code")
    for code, totals in reference.items():
        if not isinstance(totals, dict):
            raise SchemaError(f"{path}: region {code!r} must be an object of count totals")
        for name, value in totals.items():
            if name not in COUNT_FIELDS:
                raise SchemaError(
                    f"{path}: region {code!r} has unknown count field {name!r}"
                )
            if type(value) is not int or value < 0:
                raise SchemaError(
                    f"{path}: region {code!r} {name} total {json.dumps(value)} "
                    "is not a non-negative integer"
                )
    return reference


def verify_subtotals(
    dataset: ElectionDataset,
    reference: Mapping[str, Mapping[str, int]],
) -> list[Discrepancy]:
    """Compare per-region count sums against published reference totals.

    reference maps region_code to {field: expected_sum} for any subset
    of the four count fields, as load_reference reads it. Returns one
    Discrepancy per disagreement; an empty list means exact agreement.
    """
    codes, idx = dataset.region_partition()
    sums: dict[str, dict[str, int]] = {}
    for name in COUNT_FIELDS:
        col = getattr(dataset, name)
        per_region = np.zeros(len(codes), dtype=np.int64)
        np.add.at(per_region, idx, col)
        for code, total in zip(codes, per_region):
            sums.setdefault(code, {})[name] = int(total)

    out: list[Discrepancy] = []
    for code in sorted(reference):
        expected_fields = reference[code]
        for name in COUNT_FIELDS:
            if name not in expected_fields:
                continue
            expected = int(expected_fields[name])
            if code not in sums:
                out.append(Discrepancy(code, name, expected, None))
                continue
            actual = sums[code][name]
            if actual != expected:
                out.append(Discrepancy(code, name, expected, actual))
    return out


class _LineFeedRows:
    """A csv.writer target that ends each CR LF row in LF instead."""

    def __init__(self, handle) -> None:
        self._write = handle.write

    def write(self, line: str):
        return self._write(line[:-2] + "\n")


def row_writer(handle, delimiter: str = ","):
    """A csv.writer of minimally quoted, LF-ended rows into handle that
    also quotes a cell holding a lone carriage return.

    The writer with lineterminator "\n" leaves such a cell bare (Python
    3.11), so a reader splits its row there. This one writes rows with
    "\r\n", which quotes it and keeps every other cell's bytes, and each
    row's "\r\n" becomes "\n" on its way into handle.
    """
    return csv.writer(_LineFeedRows(handle), delimiter=delimiter, lineterminator="\r\n")


def write_canonical_tsv(dataset: ElectionDataset, path: str | Path) -> None:
    """Write the canonical TSV: UTF-8, LF endings, minimally quoted."""
    path = Path(path)
    columns = (
        dataset.station_ids,
        dataset.region_codes,
        dataset.constituency_ids,
        *(map(str, getattr(dataset, name).tolist()) for name in COUNT_FIELDS),
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = row_writer(handle, "\t")
        out.writerow(CANONICAL_FIELDS)
        out.writerows(zip(*columns))
