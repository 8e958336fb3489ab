"""Golden for Phase I: the chosen thresholds and every candidate's
analytic phase-time estimate on the twelve Table I twins.

Each twin is generated at the default scale (``REPRO_FULL_SCALE`` and
``REPRO_DATA_DIR`` unset) and swept with the platform its experiments
use.  Fields are compared as ``repr()`` strings, so any drift in the
sweep's arithmetic — not just in the argmin — fails the test.

Regenerate (only when a change is *meant* to move Phase I)::

    PYTHONPATH=src python tests/test_phase1_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.scalefree import DATASET_NAMES

GOLDEN = Path(__file__).parent / "data" / "phase1_twins.json"
FIELDS = ("phase2_cpu", "phase2_gpu", "phase3", "phase4")


def phase1_record(name: str) -> dict:
    """Chosen ``(t_A, t_B)`` and the full sweep of one twin."""
    from repro.analysis.runners import experiment_setup
    from repro.core.threshold import select_threshold, sweep_thresholds

    setup = experiment_setup(name)
    a = setup.matrix
    chosen = select_threshold(a, a, setup.platform())
    sweep = sweep_thresholds(a, a, setup.platform())
    return {
        "chosen": [int(chosen[0]), int(chosen[1])],
        "sweep": [
            [e.threshold_a, e.threshold_b, *(repr(getattr(e, f)) for f in FIELDS)]
            for e in sweep
        ],
    }


def all_records() -> dict:
    return {name: phase1_record(name) for name in DATASET_NAMES}


@pytest.fixture
def default_scale(monkeypatch):
    from repro.scalefree.datasets import DATA_DIR_ENV, FULL_SCALE_ENV

    monkeypatch.delenv(FULL_SCALE_ENV, raising=False)
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)


def test_twelve_twins_in_golden():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(DATASET_NAMES)
    assert len(DATASET_NAMES) == 12


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_phase1_matches_golden(name, default_scale):
    assert phase1_record(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    from repro.scalefree.datasets import DATA_DIR_ENV, FULL_SCALE_ENV

    for env in (FULL_SCALE_ENV, DATA_DIR_ENV):
        os.environ.pop(env, None)
    lines = [
        f" {json.dumps(name)}: {{\"chosen\": {json.dumps(rec['chosen'])}, \"sweep\": [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in rec["sweep"])
        + "]}"
        for name, rec in all_records().items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}")
