"""Differential test: the columnar run-record check against the frozen loop.

The corpus is run records of every optimizer with random edits: repeated,
dropped, renumbered and non-numeric steps, short rows, and gamma_max values
that are empty, nan, +-inf, huge, tiny or at the cap, each checked under no
cap, finite caps and an infinite one. Every report field must match, and a
malformed file must raise the same message, except that the frozen loop
reads a padded step (" 7") as int() does, where the reader finds it
malformed.
"""

import csv
import math
import random

import pytest

import reference_record as ref
from gradagrad import cli, csvio, verify
from gradagrad.cli import ConfigError

OPTIMIZERS = ("gradagrad", "gradagrad-scalar", "adagrad", "sgd", "adam")
GAMMAS = ["nan", "", "inf", "-inf", "1e300", "0", "2.5", "3", "3.0000001", "-1", "1e-320"]
CAPS = [None, 3.0, math.inf, 1e-3, 2.5, 1e300]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    base = tmp_path_factory.mktemp("records")
    rows = {}
    for optimizer in OPTIMIZERS:
        path = base / f"{optimizer}.csv"
        assert cli.main(["run", "--problem", "quadratic", "--dim", "3", "--steps", "200", "--eval-every", "7",
                         "--optimizer", optimizer, "--gamma0", "1.5", "--out", str(path)]) == 0
        with open(path, newline="", encoding="utf-8") as f:
            rows[optimizer] = list(csv.reader(f))
    return base, rows


def _edited(rng, rows):
    rows = [list(row) for row in rows]
    for _ in range(rng.randint(0, 4)):
        j = rng.randint(1, len(rows) - 1)
        edit = rng.random()
        if edit < 0.4:
            rows[j][5:6] = [rng.choice(GAMMAS)]
        elif edit < 0.6:
            rows.insert(j, list(rows[j]))
        elif edit < 0.75:
            rows[j][0:1] = [str(rng.randint(-5, 200))]
        elif edit < 0.8:
            rows[j][0:1] = [rng.choice(["x", "1.5", " 7", ""])]
        elif edit < 0.85:
            rows[j] = rows[j][: rng.randint(0, 11)]
        else:
            del rows[j]
    return rows


def _check_run_record(path, d_inf):
    """The report `check` makes of the run record at path."""
    _, columns = csvio.read_input(path, (csvio.RUN_HEADER,))
    return verify.record_report(*columns, d_inf)


def _outcome(check, path, d_inf):
    try:
        return check(path, d_inf)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(8))
def test_edited_records_match_reference(records, seed):
    base, rows = records
    rng = random.Random(seed)
    for case in range(40):
        path = base / f"edited-{seed}-{case}.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows(_edited(rng, rows[rng.choice(OPTIMIZERS)]))
        d_inf = rng.choice(CAPS)
        new, old = _outcome(_check_run_record, path, d_inf), _outcome(ref.check_run_record, path, d_inf)
        # the frozen loop reads a padded step " 7" as int() does; the reader refuses padding
        lines = enumerate(path.read_text().split("\n"), 1)
        padded = next((n for n, line in lines if line.startswith(" ") and len(line.split(",")) == 10), None)
        if padded and (not isinstance(old, str) or padded < int(old.removeprefix(f"{path}:").split(":")[0])):
            old = f"{path}:{padded}: non-numeric step or gamma_max"
        if isinstance(old, str):
            assert new == old
            continue
        assert (new.name, new.passed, new.location, new.details) == (old.name, old.passed, old.location, old.details)
        assert float(new.worst_violation).hex() == float(old.worst_violation).hex(), (new, old)
