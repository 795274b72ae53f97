"""Golden record digests: every built-in scenario's records, pinned by hash.

The result cache keys trials on the scenario ``version``, so a change that
alters a scenario's records without bumping that version would let the cache
serve stale results.  Each scenario's default-axes sweep (one replicate) is
hashed here — sha256 over the JSONL that :func:`write_jsonl` writes, with the
engine-selector ``batch`` column stripped and every float rounded to
``DIGITS`` significant digits — and the digest is pinned together with the
version it belongs to.  The rounding keeps the pins stable across BLAS builds
and libm versions, whose last-bit differences are not behaviour changes.

Scenarios with a ``batch`` parameter are run on both engines against the
same pin, so the batched and reference engines are checked against each
other as well as against history.  A deliberate change to a scenario's
records must bump its ``version`` and re-pin its digest here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import get_scenario, run_sweep
from repro.experiments.store import write_jsonl

DIGITS = 10

#: name -> (scenario version, record count, sha256 of the stripped JSONL)
PINS = {
    "fixedpoint-bitwidth": (
        "2", 6, "babf54cae91dfadc61994c66ba8e9225dd8edacf4fdbf4096951a15a1bfdeb35"
    ),
    "ipcore-parallelism": (
        "1", 9, "85187e0b02f3ac28f453ca5ab6b7162d6c91b00c7ab9cc0b8ef43b534cfda0c4"
    ),
    "modem-ser-vs-snr": (
        "1", 10, "8d09ef3cec4b02c788521ac97ba68fa9f1e82399eb3659b5291ecfb4d1e10a16"
    ),
    "mp-refinement": (
        "1", 8, "e8180683ea3bcfda97138bb394803895ab280f49e55596a0517568598efc0018"
    ),
    "network-contention": (
        "1", 4, "c44ced7a95bc92728ee183860f06f1e73face527b500977fa7babf7a0f4ca623"
    ),
    "network-lifetime": (
        "2", 30, "ed24a2058ff54952646e456b07a40fbd5193d4e217e534a5eecb21527a25945b"
    ),
    "network-pdr-vs-density": (
        "1", 4, "7830bea44ecd901110634cc8f3ed98dd66188b2b3e9a9770c0a9171cdb574eec"
    ),
    "platform-energy": (
        "1", 5, "eef9b0d0c05f2ff260a15b7dba97c538f1accc71cb0ce609b592f771bda0b8b9"
    ),
}


def _cases():
    for name in sorted(PINS):
        spec = get_scenario(name).spec
        engines = [None]
        if "batch" in spec.base:
            engines = [spec.base["batch"], not spec.base["batch"]]
        for batch in engines:
            label = name if batch is None else f"{name}-batch={batch}"
            yield pytest.param(name, batch, id=label)


def _stripped(record: dict) -> dict:
    return {
        key: float(f"{value:.{DIGITS}g}") if isinstance(value, float) else value
        for key, value in record.items()
        if key != "batch"
    }


@pytest.mark.parametrize("name,batch", list(_cases()))
def test_default_sweep_records_match_pinned_digest(name, batch, tmp_path):
    scenario = get_scenario(name)
    version, count, digest = PINS[name]
    assert scenario.version == version, (
        f"{name} is at version {scenario.version}; re-pin its digest for the new version"
    )
    spec = scenario.spec.with_seed(replicates=1)
    if batch is not None:
        spec = spec.with_base(batch=batch)
    records = [_stripped(record) for record in run_sweep(spec).records]
    path = write_jsonl(tmp_path / "results.jsonl", records)
    assert len(records) == count
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (
        f"{name} records changed without a version bump"
    )
