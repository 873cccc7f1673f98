"""Reclassify a corpus of reported (t, F) pairs under each testing rule.

Records carry only the published statistics -- the t-ratio and the
first-stage F -- so procedures are applied exactly as a reader of a paper
could apply them.  Rules that need the unpublished AR statistic (the pure AR
test everywhere, the hybrid rule below its F gate) come back indeterminate
for the affected records instead of guessing.

Each procedure's table is a 2x2 over significance and the F = 10
rule-of-thumb (plus an indeterminate bucket), in unweighted counts and
weighted shares.  Weights follow the inverse-specification-count convention:
a record without an explicit weight gets 1 / (number of records from the
same paper), so every paper contributes equally.  The report also tracks,
among records that look solid under the conventional reading (|t| > 1.96 and
F > 10), how many each rule reclassifies as insignificant.

The report is bit-identical under any permutation of the input records:
every weighted sum is a `math.fsum`, which is exactly rounded and so does not
depend on the order of its terms, every other aggregate is an integer count,
and the weights depend only on each paper's number of records.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import DomainError
from .gaussian import chi2_quantile_1df
from .size_engine import ThresholdTF, _require_procedure

__all__ = [
    "SpecRecord",
    "ProcedureCells",
    "AuditReport",
    "classify_record",
    "classify_corpus",
    "read_corpus_csv",
    "report_to_json",
]

SIGNIFICANT = "significant"
INSIGNIFICANT = "insignificant"
INDETERMINATE = "indeterminate"
_VERDICTS = {True: SIGNIFICANT, False: INSIGNIFICANT, None: INDETERMINATE}

_F_RULE_OF_THUMB = 10.0
_CELL_KEYS = ("sig_F_above", "sig_F_below", "insig_F_above", "insig_F_below")
_CSV_HEADER = ["spec_id", "paper_id", "t", "F_derived", "F_reported", "weight"]

CAVEAT = (
    "Reported first-stage F columns may be F statistics for other hypotheses; "
    "ingestion cannot detect this, and derived values are preferred when present."
)


@dataclass(frozen=True)
class SpecRecord:
    """One specification: identifiers, published statistics, optional weight."""

    spec_id: str
    paper_id: str
    t: Optional[float] = None
    F: Optional[float] = None
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("spec_id", "paper_id"):
            v = getattr(self, name)
            if not isinstance(v, str) or not v:
                raise DomainError(f"SpecRecord.{name} must be a nonempty string")
        for name in ("t", "F", "weight"):
            v = getattr(self, name)
            if v is None:
                continue
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise DomainError(f"SpecRecord.{name} must be finite, got {v!r}")
        if self.F is not None and self.F < 0.0:
            raise DomainError(f"SpecRecord.F must be nonnegative, got {self.F!r}")
        if self.weight is not None and self.weight <= 0.0:
            raise DomainError(f"SpecRecord.weight must be positive, got {self.weight!r}")


def classify_record(rec: SpecRecord, proc) -> str:
    """Significant / insignificant / indeterminate for one record and rule."""
    if not isinstance(rec, SpecRecord):
        raise DomainError("classify_record expects a SpecRecord")
    _require_procedure(proc)
    return _VERDICTS[proc.rejects(rec.t, rec.F)]


@dataclass(frozen=True)
class ProcedureCells:
    """One rule's table: counts, weighted shares, and the reclassified cell."""

    counts: Mapping[str, int]
    weighted_shares: Mapping[str, float]
    reclassified_count: int
    reclassified_rate: Optional[float]
    reclassified_weighted_rate: Optional[float]


@dataclass(frozen=True)
class AuditReport:
    n_records: int
    n_universe: int
    f_rule_of_thumb: float
    baseline_cell_count: int
    baseline_cell_weight: float
    procedures: Mapping[str, ProcedureCells]
    caveat: str = CAVEAT


def _resolved_weights(records: Sequence[SpecRecord]) -> list[float]:
    per_paper = Counter(r.paper_id for r in records)
    return [
        r.weight if r.weight is not None else 1.0 / per_paper[r.paper_id]
        for r in records
    ]


def classify_corpus(
    records: Sequence[SpecRecord], procedures: Mapping[str, object]
) -> AuditReport:
    """Aggregate every rule's 2x2 table over the records that carry both
    statistics; see the module docstring for the table layout.

    Records missing t or F are excluded from the tables (they cannot be
    placed on the F axis); indeterminacy inside the tables then reflects
    only genuinely unavailable statistics (the AR cases).
    """
    records = list(records)
    if not records or not all(isinstance(r, SpecRecord) for r in records):
        raise DomainError("records must be a nonempty sequence of SpecRecord")
    if not procedures or not all(
        isinstance(k, str) and k for k in procedures
    ):
        raise DomainError("procedures must be a nonempty name -> rule mapping")

    weights = _resolved_weights(records)
    universe = [
        (r, w) for r, w in zip(records, weights) if r.t is not None and r.F is not None
    ]
    if not universe:
        raise DomainError("empty corpus: no record carries both t and F")
    total_w = math.fsum(w for _, w in universe)

    screen = ThresholdTF(chi2_quantile_1df(0.95), _F_RULE_OF_THUMB)
    in_cell = [screen.rejects(r.t, r.F) for r, _ in universe]
    cell_count = sum(in_cell)
    cell_weight = math.fsum(w for (_, w), inc in zip(universe, in_cell) if inc)

    tables: dict[str, ProcedureCells] = {}
    for name, proc in procedures.items():
        counts = {k: 0 for k in _CELL_KEYS}
        counts[INDETERMINATE] = 0
        wsums = {k: [] for k in counts}
        recl_n = 0
        recl_w: list[float] = []
        for (r, w), inc in zip(universe, in_cell):
            verdict = classify_record(r, proc)
            if verdict == INDETERMINATE:
                key = INDETERMINATE
            else:
                above = r.F > _F_RULE_OF_THUMB
                if verdict == SIGNIFICANT:
                    key = "sig_F_above" if above else "sig_F_below"
                else:
                    key = "insig_F_above" if above else "insig_F_below"
            counts[key] += 1
            wsums[key].append(w)
            if inc and verdict == INSIGNIFICANT:
                recl_n += 1
                recl_w.append(w)
        shares = {k: math.fsum(v) / total_w for k, v in wsums.items()}
        tables[name] = ProcedureCells(
            counts=counts,
            weighted_shares=shares,
            reclassified_count=recl_n,
            reclassified_rate=(recl_n / cell_count) if cell_count else None,
            reclassified_weighted_rate=(
                math.fsum(recl_w) / cell_weight if cell_weight > 0.0 else None
            ),
        )

    return AuditReport(
        n_records=len(records),
        n_universe=len(universe),
        f_rule_of_thumb=_F_RULE_OF_THUMB,
        baseline_cell_count=cell_count,
        baseline_cell_weight=cell_weight / total_w,
        procedures=tables,
    )


def _parse_cell(raw: str, column: str, line_no: int) -> Optional[float]:
    raw = raw.strip()
    if raw == "":
        return None
    try:
        v = float(raw)
    except ValueError:
        raise DomainError(f"line {line_no}: {column} is not a number: {raw!r}")
    if not math.isfinite(v):
        raise DomainError(f"line {line_no}: {column} must be finite, got {raw!r}")
    return v


def read_corpus_csv(path, prefer_reported: bool = False) -> list[SpecRecord]:
    """Load records; F_derived wins over F_reported unless told otherwise."""
    records: list[SpecRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = iter(list(csv.reader(fh)))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DomainError(f"unreadable corpus file ({exc}): {path}") from exc
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise DomainError(
                f"bad corpus header: expected {','.join(_CSV_HEADER)}, got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_CSV_HEADER):
                raise DomainError(f"line {line_no}: expected 6 cells, got {len(row)}")
            spec_id, paper_id = row[0].strip(), row[1].strip()
            t = _parse_cell(row[2], "t", line_no)
            f_derived = _parse_cell(row[3], "F_derived", line_no)
            f_reported = _parse_cell(row[4], "F_reported", line_no)
            weight = _parse_cell(row[5], "weight", line_no)
            if prefer_reported:
                F = f_reported if f_reported is not None else f_derived
            else:
                F = f_derived if f_derived is not None else f_reported
            records.append(
                SpecRecord(spec_id=spec_id, paper_id=paper_id, t=t, F=F, weight=weight)
            )
    if not records:
        raise DomainError(f"empty corpus file: {path}")
    return records


def report_to_json(report: AuditReport) -> str:
    """Serialize to the documented JSON layout (shares at 6 decimals)."""
    if not isinstance(report, AuditReport):
        raise DomainError("report_to_json expects an AuditReport")

    def r6(v: Optional[float]) -> Optional[float]:
        return None if v is None else round(v, 6)

    doc = {
        "caveat": report.caveat,
        "n_records": report.n_records,
        "n_universe": report.n_universe,
        "f_rule_of_thumb": report.f_rule_of_thumb,
        "baseline_cell": {
            "count": report.baseline_cell_count,
            "weighted_share": r6(report.baseline_cell_weight),
        },
        "procedures": {
            name: {
                "counts": dict(cells.counts),
                "weighted_shares": {
                    k: r6(v) for k, v in cells.weighted_shares.items()
                },
                "reclassified": {
                    "count": cells.reclassified_count,
                    "rate": r6(cells.reclassified_rate),
                    "weighted_rate": r6(cells.reclassified_weighted_rate),
                },
            }
            for name, cells in report.procedures.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
