"""Reading, fingerprinting and checking the files one CLI op writes.

An op writes CSV files and one ``<experiment>_report.json`` into its own
directory.  From them this module takes:

* the pass/fail status of every check in the report;
* the exact fields: every numeric leaf of the report's ``results`` and check
  values, plus the row count, sum, min and max of every numeric CSV column;
* a sha256 of each CSV and of the report with ``duration_seconds`` removed.

Monte Carlo outputs (the sampled columns and what is derived from them) are
left out of the exact fields: they are judged only by the experiment's own
statistical checks, whose pass/fail status is compared like any other check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

# |value - reference| <= ABS_TOL + REL_TOL * |reference| for every exact field
ABS_TOL = 1e-9
REL_TOL = 1e-6

SAMPLED_COLUMNS = frozenset({"hits", "rate_mc", "hits_bon", "rate_mc_bon"})
SAMPLED_RESULTS = frozenset({"max_mc_band_dev", "undefined_at_shallow_rate"})
SAMPLED_CHECKS = frozenset({"mc_within_band", "undefined_only_deep"})


@dataclass
class OpOutput:
    """What one op left behind; ``exit_code`` is None when the call raised."""

    exit_code: int | None
    error: str = ""
    aborted: bool = False
    checks: dict[str, bool] = field(default_factory=dict)
    exact: dict[str, float] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)

    def to_record(self) -> dict:
        return asdict(self)


def _numeric_leaves(prefix: str, value, out: dict[str, float]) -> None:
    if isinstance(value, (bool, int, float)):
        out[prefix] = float(value)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _numeric_leaves(f"{prefix}[{i}]", item, out)
    elif isinstance(value, dict):
        for key, item in value.items():
            _numeric_leaves(f"{prefix}.{key}", item, out)


def _cell(text: str) -> float | None:
    if text == "":
        return None
    if text in ("True", "False"):
        return float(text == "True")
    return float(text)


def _csv_fields(name: str, text: str, out: dict[str, float]) -> None:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    out[f"csv.{name}.rows"] = float(len(rows))
    for j, column in enumerate(header):
        if column in SAMPLED_COLUMNS:
            continue
        try:
            values = [v for v in (_cell(row[j]) for row in rows) if v is not None]
        except ValueError:
            continue  # a text column such as curve_tag
        if values:
            out[f"csv.{name}.{column}.sum"] = math.fsum(values)
            out[f"csv.{name}.{column}.min"] = min(values)
            out[f"csv.{name}.{column}.max"] = max(values)


def read_op(outdir: Path, exit_code: int | None, error: str) -> OpOutput:
    """Collect an op's statuses, exact fields and fingerprints from ``outdir``."""
    out = OpOutput(exit_code=exit_code, error=error.strip())
    reports = sorted(outdir.glob("*_report.json")) if outdir.is_dir() else []
    if not reports:
        out.aborted = True
        return out
    report = json.loads(reports[0].read_text())
    report.pop("duration_seconds", None)
    canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out.sha256[reports[0].name] = hashlib.sha256(canonical.encode()).hexdigest()
    for check in report.get("checks", []):
        out.checks[check["name"]] = bool(check["passed"])
        if check["name"] not in SAMPLED_CHECKS:
            _numeric_leaves(f"checks.{check['name']}", check["value"], out.exact)
    for key, value in report.get("results", {}).items():
        if key not in SAMPLED_RESULTS:
            _numeric_leaves(f"results.{key}", value, out.exact)
    for path in sorted(outdir.glob("*.csv")):
        data = path.read_bytes()
        out.sha256[path.name] = hashlib.sha256(data).hexdigest()
        _csv_fields(path.stem, data.decode(), out.exact)
    return out


@dataclass
class Verdict:
    """How one op compares with the reference and with its first run."""

    errors: list[str] = field(default_factory=list)  # raised, exit 2, aborted
    wrong: list[str] = field(default_factory=list)  # flips, moved fields, drift
    max_abs_dev: float = 0.0
    identical: bool | None = None  # None without a usable reference

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)


def _within(value: float, ref: float) -> bool:
    if value == ref or (math.isnan(value) and math.isnan(ref)):
        return True
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def judge(out: OpOutput, reference: dict | None, first: OpOutput | None) -> Verdict:
    """Apply the failure rule to one op.

    An op fails if it raises, exits 2 or aborts without a report; if its exit
    code or any check's status differs from the reference; if an exact field
    is missing or outside the tolerance; or if its files differ from the
    first run of the same op in this process.
    """
    v = Verdict()
    if out.exit_code is None:
        v.errors.append(f"raised: {out.error}")
    elif out.exit_code == 2:
        v.errors.append(f"usage error (exit 2): {out.error}")
    elif out.aborted:
        v.errors.append(f"aborted with exit {out.exit_code}: {out.error}")
    if v.errors:
        return v
    if first is not None and out.sha256 != first.sha256:
        v.wrong.append("outputs differ between repeats of the same op")
    if reference is None or reference["aborted"]:
        return v
    if out.exit_code != reference["exit_code"]:
        v.wrong.append(f"exit code {out.exit_code}, reference {reference['exit_code']}")
    for name, passed in reference["checks"].items():
        if out.checks.get(name) != passed:
            v.wrong.append(f"check {name}: {out.checks.get(name)}, reference {passed}")
    for name, ref in reference["exact"].items():
        value = out.exact.get(name)
        if value is None:
            v.wrong.append(f"exact field {name} missing")
            continue
        if math.isfinite(value) and math.isfinite(ref):
            v.max_abs_dev = max(v.max_abs_dev, abs(value - ref))
        if not _within(value, ref):
            v.wrong.append(f"exact field {name}: {value!r}, reference {ref!r}")
    v.identical = out.sha256 == reference["sha256"]
    return v
