"""Every catalog derivation reproduces its recorded step digests.

``catalog_step_digests.json`` pins, for each catalog analysis and each
side (operator and instruction), the step count and a SHA-256 over the
initial description digest and every step's ``digest_after``, in order,
plus the first 12 hex digits of each of those digests so that a
mismatch can name the first step that moved.  A change to a traversal
order, a printer or a transformation that alters any intermediate form
fails here: a locator that picked a different occurrence, for instance,
rewrites a different node and every later digest drifts.

When a script, a description or a transformation changes a derivation
on purpose, regenerate the file and commit it with the change, so the
diff shows which derivations moved::

    PYTHONPATH=src python -m tests.transform.test_catalog_digests
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterator, Tuple

import pytest

from repro.analyses import REGISTRY
from repro.analysis import RunConfig
from repro.transform import Session

GOLDEN = pathlib.Path(__file__).with_name("catalog_step_digests.json")

#: The two sessions of an analysis trace, under their golden-file names.
SIDES = (("operator", "operator"), ("instruction", "instruction_trace"))

#: Each side's input-description factory in an analysis module.
FACTORIES = {"operator": "OPERATOR", "instruction": "INSTRUCTION"}


def side_record(session_trace) -> Dict[str, object]:
    """Step count, chained SHA-256 and per-step prefixes of one side."""
    digests = [session_trace.initial_digest] + [
        event.digest_after for event in session_trace.events
    ]
    return {
        "steps": len(session_trace.events),
        "sha256": hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest(),
        "prefixes": [digest[:12] for digest in digests],
    }


def catalog_records() -> Dict[str, Dict[str, object]]:
    """Every catalog analysis's two side records, in catalog order."""
    records = {}
    for spec in REGISTRY:
        trace = spec.module.run(RunConfig(verify=False)).trace
        records[spec.name] = {
            side: side_record(getattr(trace, attribute))
            for side, attribute in SIDES
        }
    return records


def replayed_forms() -> Iterator[Tuple[str, str, int, object]]:
    """``(analysis, side, step, description)`` for every form a catalog
    replay passes through, the input description being step 0."""
    for spec in REGISTRY:
        trace = spec.module.run(RunConfig(verify=False)).trace
        for side, attribute in SIDES:
            session = Session(getattr(spec.module, FACTORIES[side])())
            yield spec.name, side, 0, session.description
            for event in getattr(trace, attribute).events:
                session.apply(event.transform, at=event.path, **dict(event.params))
                yield spec.name, side, event.index, session.description


def first_difference(expected: Dict[str, object], actual: Dict[str, object]) -> str:
    """Where two side records part: the first step whose digest moved."""
    for step, (want, got) in enumerate(
        zip(expected["prefixes"], actual["prefixes"])
    ):
        if want != got:
            where = "initial description" if step == 0 else f"step {step}"
            return f"{where}: digest {got}... recorded {want}..."
    if expected["steps"] != actual["steps"]:
        step = min(expected["steps"], actual["steps"]) + 1
        return f"step {step}: {actual['steps']} steps, recorded {expected['steps']}"
    return "chained SHA-256 differs with equal prefixes"


@pytest.fixture(scope="module")
def records():
    return catalog_records()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_catalog(records, golden):
    assert list(golden) == list(records)


@pytest.mark.parametrize("name", [spec.name for spec in REGISTRY])
@pytest.mark.parametrize("side", [side for side, _attribute in SIDES])
def test_derivation_matches_golden(records, golden, name, side):
    expected = golden[name][side]
    actual = records[name][side]
    if actual != expected:
        pytest.fail(
            f"{name} {side} derivation changed at "
            f"{first_difference(expected, actual)}"
        )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(catalog_records(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
