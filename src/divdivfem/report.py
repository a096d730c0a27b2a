"""Check records and reproducible report output.

Persisted JSON excludes wall time so identical inputs give byte-identical
files; wall time still appears on standard output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field


def check(name, expected, computed, source, tol=0, ok=None) -> dict:
    """One audit row.  It passes on the verdict ok when one is given, else
    when |computed - expected| <= tol for a nonzero tol, else when computed
    equals expected; computed and expected are kept as given."""
    if ok is None:
        ok = abs(computed - expected) <= tol if tol else computed == expected
    return {"name": name, "expected": expected, "computed": computed,
            "source": source, "pass": bool(ok)}


@dataclass
class Report:
    command: str
    inputs: dict
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def table(self) -> str:
        lines = [f"command: {self.command}",
                 "inputs: " + " ".join(f"{k}={v}" for k, v in self.inputs.items())]
        w = max((len(str(c["name"])) for c in self.checks), default=10)
        for c in self.checks:
            mark = "PASS" if c["pass"] else "FAIL"
            lines.append(f"  [{mark}] {str(c['name']):<{w}}  computed={c['computed']}"
                         f"  expected={c['expected']}  ({c['source']})")
        n_fail = sum(not c["pass"] for c in self.checks)
        lines.append(f"{len(self.checks)} checks, {n_fail} failures"
                     f"  [{self.wall_time_s:.2f}s]")
        return "\n".join(lines)

    def to_json(self, path) -> None:
        payload = {
            "command": self.command,
            "inputs": {k: _plain(v) for k, v in sorted(self.inputs.items())},
            "checks": [{k: _plain(v) for k, v in sorted(c.items())} for c in self.checks],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "expected", "computed", "source", "pass"])
            for c in self.checks:
                writer.writerow([c["name"], _plain(c["expected"]),
                                 _plain(c["computed"]), c["source"], c["pass"]])


def _plain(v):
    if hasattr(v, "item"):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def write_run_csv(path, record) -> None:
    """Per-step CSV for solver runs: t, energy, err_sigma, err_E, err_B."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "energy", "err_sigma", "err_E", "err_B"])
        has_err = bool(record.err_sigma)
        for i, t in enumerate(record.t):
            row = [repr(float(t)), repr(float(record.energy[i]))]
            if has_err:
                row += [repr(float(record.err_sigma[i])),
                        repr(float(record.err_E[i])),
                        repr(float(record.err_B[i]))]
            else:
                row += ["", "", ""]
            writer.writerow(row)
