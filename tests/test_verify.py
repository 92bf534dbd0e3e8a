import hashlib

import pytest

from conftest import pinned
from rankphase import InputError, run_identity_suite
from rankphase.cli import main
from rankphase.verify import CHECKS

IDENTITIES = [
    "differential-gap",
    "poisson-gap",
    "score-comparison",
    "score-collaboration",
    "score-adaptive-linear",
    "hat-matrix",
    "profile-ls-hat",
    "bhattacharyya-series",
    "loss-properties",
    "signal-window",
    "snr-roundtrip",
    "space-nesting",
]


@pytest.fixture(scope="module")
def results():
    return run_identity_suite()


def test_all_identities_pass(results):
    assert [r.name for r in results] == IDENTITIES
    assert list(CHECKS) == IDENTITIES
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_deviations_at_pinned_digest(results):
    text = repr([(r.name, r.passed, r.max_deviation) for r in results])
    assert hashlib.sha256(text.encode()).hexdigest() == pinned("verify/deviations")["deviations"]


def test_nan_deviation_fails_the_gate(monkeypatch):
    monkeypatch.setattr(
        "rankphase.verify.signal_gap_closed_form", lambda *args: float("nan")
    )
    assert not CHECKS["differential-gap"]().passed
    assert main(["verify"]) == 1


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_injection_trips_each_identity(name):
    result = CHECKS[name](corrupt=True)
    assert not result.passed, f"corrupting {name} did not trip the check"
    assert result.max_deviation > result.tolerance


def test_unknown_injection_rejected():
    with pytest.raises(InputError):
        run_identity_suite(inject="not-an-identity")
