"""Output checks for one CLI job.

Every job must exit 0 and print the verdict line its kind promises. A
failing job is always counted as failed. Failures whose symptom matches a
defect that was already known when the benchmark was defined are tagged
with that defect; any other failure makes the run's ``correct`` false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Relative size below which a recovered ansatz component counts as zero.
PATTERN_TOL = 1e-8
# Largest scaled residual an oracle point may have (the CLI's own default).
ORACLE_RESIDUAL_TOL = 1e-8

KNOWN_DEFECTS = {
    "verify-false-inconclusive":
        "verify exits 3 with 'det Q vanishes' for a well-conditioned Q at "
        "large n (ROADMAP open item 4)",
    "oracle-undercount":
        "spectrum --pair finds fewer than 4*p1*p2 points, each with a small "
        "residual, for a generic pair",
    "oracle-false-shared-factor":
        "spectrum --pair exits 3 ('resultant vanishes identically') for a "
        "generic pair: the absolute res_scale cut-off (ROADMAP open item 4)",
}

_PAIR = re.compile(r"\(([^,()]+), ([^,()]+)\)")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known: str = ""     # key of KNOWN_DEFECTS when the failure matches one


OK = Verdict(True)


def _field(out: str, prefix: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _check_construct(job, out):
    if _field(out, "membership:") != "member":
        return Verdict(False, "membership is not 'member'")
    text = _field(out, "ansatz recovered:")
    values = [complex(float(a), float(b)) for a, b in _PAIR.findall(text or "")]
    if len(values) != 3:
        return Verdict(False, f"cannot parse recovered ansatz {text!r}")
    scale = max(abs(v) for v in values)
    pattern = tuple(abs(v) > PATTERN_TOL * scale for v in values)
    if pattern != job.expect["pattern"]:
        return Verdict(False, f"recovered ansatz pattern {pattern} != "
                              f"requested {job.expect['pattern']}")
    return OK


def _check_oracle(job, out):
    count = _field(out, "count (multiplicity-aware):")
    if count is None:
        return Verdict(False, "no count line")
    residuals = [float(x) for x in re.findall(r"residual=(\S+)", out)]
    worst = max(residuals, default=0.0)
    if worst > ORACLE_RESIDUAL_TOL:
        return Verdict(False, f"point residual {worst:.3g} > {ORACLE_RESIDUAL_TOL:g}")
    want = job.expect["count"]
    if int(count) != want:
        known = "oracle-undercount" if int(count) < want else ""
        return Verdict(False, f"count {count} != {want}", known)
    return OK


def _expect_line(out, prefix, value):
    got = _field(out, prefix)
    if got != value:
        return Verdict(False, f"'{prefix}' is {got!r}, expected {value!r}")
    return OK


def check(job, code: int, out: str, err: str) -> Verdict:
    """Classify one execution of ``job`` from its exit code and output."""
    if code != 0:
        if job.kind == "verify" and code == 3 and "det Q vanishes" in err:
            return Verdict(False, "exit 3: det Q vanishes", "verify-false-inconclusive")
        if job.kind == "oracle" and code == 3 and "resultant vanishes identically" in err:
            return Verdict(False, "exit 3: resultant vanishes identically",
                           "oracle-false-shared-factor")
        first = (err.strip().splitlines() or [""])[0]
        return Verdict(False, f"exit {code}: {first}")
    if job.kind == "construct":
        return _check_construct(job, out)
    if job.kind == "verify":
        return _expect_line(out, "verdict:", "PASS")
    if job.kind == "spectrum":
        return _expect_line(out, "containment:", "PASS")
    if job.kind == "delta":
        verdict = _expect_line(out, "singular:", "yes")
        return verdict if not verdict.ok else _expect_line(
            out, "structural zero pattern:", "yes")
    if job.kind == "oracle":
        return _check_oracle(job, out)
    raise ValueError(f"unknown job kind {job.kind!r}")
