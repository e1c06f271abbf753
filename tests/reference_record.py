"""Frozen reference run-record check for the differential test of
`check` on a run record: csvio.read_input, then verify.record_report.

This is the row-by-row loop the record check ran before it moved onto the
step and gamma_max columns. Do not edit it to follow the package.
"""

import csv
import math

from gradagrad.csvio import RUN_HEADER, ConfigError
from gradagrad.verify import CheckReport


def check_run_record(path, d_inf):
    worst = 0.0
    location = None
    details = []
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        next(reader)
        prev_step = None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RUN_HEADER):
                raise ConfigError(f"{path}:{lineno}: expected {len(RUN_HEADER)} fields")
            try:
                step = int(row[0])
                gamma_max = float(row[5]) if row[5] else None
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: non-numeric step or gamma_max") from None
            if prev_step is not None and step <= prev_step:
                if 1.0 > worst:  # the first of the largest violations; an earlier NaN stays
                    worst, location = 1.0, (step, 0)
                details.append(f"step {step} does not increase past {prev_step}")
            prev_step = step
            if d_inf is not None and gamma_max is not None:
                # a finite gamma_max under d_inf = inf gives over = -inf/inf = NaN: no
                # violation; a NaN gamma_max fails, located at the first one
                over = (gamma_max - d_inf) / d_inf
                if over > worst or (math.isnan(gamma_max) and not math.isnan(worst)):
                    worst = over
                    location = (step, 0)
    cap_note = f", gamma_max <= {d_inf:g}" if d_inf is not None else ""
    return CheckReport(
        name="run_record",
        passed=worst <= 0.0,
        worst_violation=worst,
        location=location,
        details="; ".join(details[:3]) or f"steps strictly increasing{cap_note}",
    )
