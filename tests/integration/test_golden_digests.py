"""Cross-commit byte identity: pinned sha256 digests of seeded runs.

The same-seed tests elsewhere prove a run agrees with itself; these pin
what the runs *produce*, so a refactor that changes any output byte --
a report, a trace, a drill image, a sample or log block, an access
count, the PRNG state -- fails here even when it stays deterministic.

The digests were recorded at commit ``10b52f8`` (bit-exact C-speed
MT19937 and block codecs).  A change that is *meant* to move one of
these outputs must say why and re-record the affected digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.naive import NaiveCandidateRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec

SERVE_SMOKE = [
    "serve-sim", "--seed", "7", "--events", "200", "--policy", "deadline:128",
    "--slo", "latency:0.2:0.9", "--ts-interval", "1.0",
]
KINDS_SMOKE = [
    "serve-sim", "--seed", "7", "--events", "200", "--samples", "4",
    "--kinds", "weighted,window", "--algorithm", "array",
]
FLEET_ONE_SHARD = [
    "fleet-sim", "--seed", "7", "--shards", "1", "--samples", "4",
    "--events", "300", "--engine", "full",
]
DRILL = ["dr-drill", "--seed", "13", "--crash-phase", "barrier"]

GOLDEN = {
    "serve.report": (
        "c9af61298ce8f33d3a1060deda0d4756"
        "dd565579fd3f501db0eb1df8333724a4"
    ),
    "serve.trace": (
        "6f6e0cd0f209a29ccb2461bba040a8fc"
        "940dec6e61b730dfb0eaa4316f02e3dd"
    ),
    "kinds.report": (
        "8e759ba1d04dbd0eac1ad9b77296bccc"
        "7b37b113fb28fee5b7dad277adfea421"
    ),
    "fleet.report": (
        "7690f4bad600d48679f30abe23efe0bb"
        "a4cccb0e7e8e144f9ae4d00dbabed0ab"
    ),
    "drill.primary.img": (
        "1180cbcf9fbe881e0016b4c6b505bac3"
        "5db1c096c822a42c8cda137472fb9f65"
    ),
    "drill.recovered.img": (
        "1180cbcf9fbe881e0016b4c6b505bac3"
        "5db1c096c822a42c8cda137472fb9f65"
    ),
    "drill.report": (
        "2daa29121046a263042c3c8b0573b0fd"
        "928e8254a6ac16f2dcf1d1d2d54d7075"
    ),
    "maintain.naive": (
        "dc33aa594bbd562c30fc1b5eda2c84c7"
        "28686377314cec5eb132a3b6576b3763"
    ),
    "maintain.array": (
        "08d517cb7e47c633dd0833b40f55f3b6"
        "253708963209587c55110162b0956e35"
    ),
    "maintain.stack": (
        "b363c011f6a9a7c1f8912a4f61d7591d"
        "e8aadfb3aa6038e5af01c99181cb4822"
    ),
    "maintain.nomem": (
        "35f9aff1a589d25ead7a578c33c14cfc"
        "644ec20914bad2cbed3d149604710680"
    ),
}

ALGORITHMS = {
    "naive": NaiveCandidateRefresh,
    "array": ArrayRefresh,
    "stack": StackRefresh,
    "nomem": NomemRefresh,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _blocks(device: SimulatedBlockDevice) -> bytes:
    image = device.snapshot_blocks()
    return b"".join(
        index.to_bytes(8, "little") + image[index] for index in sorted(image)
    )


def maintain_digest(algorithm: str) -> str:
    """Four refresh rounds plus a pending tail under one algorithm.

    Covers sample and log blocks, the cost model's AccessStats, the
    maintainer's online/offline split and the final PRNG state.
    """
    cost = CostModel()
    codec = IntRecordCodec()
    sample_device = SimulatedBlockDevice(cost, "sample")
    log_device = SimulatedBlockDevice(cost, "log")
    sample = SampleFile(sample_device, codec, 200)
    sample.initialize(list(range(200)))
    rng = RandomSource(2006)
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy="candidate",
        initial_dataset_size=1000,
        log=LogFile(log_device, codec),
        algorithm=ALGORITHMS[algorithm](),
        policy=ManualPolicy(),
        cost_model=cost,
    )
    next_value = 10_000
    for batch in (3000, 1, 577, 4000):
        maintainer.insert_many(range(next_value, next_value + batch))
        next_value += batch
        maintainer.refresh()
    for value in range(next_value, next_value + 2500):
        maintainer.insert(value)
    mt_state, w = rng.snapshot()
    parts = [
        _blocks(sample_device),
        _blocks(log_device),
        repr(cost.checkpoint()).encode(),
        repr(maintainer.stats).encode(),
        repr((maintainer.dataset_size, maintainer.pending_log_elements)).encode(),
        repr((mt_state.key, mt_state.position, w)).encode(),
        maintainer.checkpoint_state().to_bytes(),
    ]
    return _sha256(b"\x00".join(parts))


def cli_digests(tmp_path, capsys) -> dict[str, str]:
    """Run the pinned CLI invocations; digest each artifact they write."""
    serve_json = tmp_path / "serve.json"
    trace = tmp_path / "trace.jsonl"
    assert main(SERVE_SMOKE + ["--trace", str(trace), "--json", str(serve_json)]) == 0
    kinds_json = tmp_path / "kinds.json"
    assert main(KINDS_SMOKE + ["--json", str(kinds_json)]) == 0
    fleet_json = tmp_path / "fleet.json"
    assert main(FLEET_ONE_SHARD + ["--json", str(fleet_json)]) == 0
    drill = tmp_path / "drill"
    assert main(DRILL + ["--out", str(drill)]) == 0
    capsys.readouterr()
    return {
        "serve.report": _sha256(serve_json.read_bytes()),
        "serve.trace": _sha256(trace.read_bytes()),
        "kinds.report": _sha256(kinds_json.read_bytes()),
        "fleet.report": _sha256(fleet_json.read_bytes()),
        "drill.primary.img": _sha256((drill / "primary.img").read_bytes()),
        "drill.recovered.img": _sha256((drill / "recovered.img").read_bytes()),
        "drill.report": _sha256((drill / "drill-report.json").read_bytes()),
    }


def test_cli_artifacts_match_pinned_digests(tmp_path, capsys):
    digests = cli_digests(tmp_path, capsys)
    assert digests == {key: GOLDEN[key] for key in digests}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_maintainer_run_matches_pinned_digest(algorithm):
    assert maintain_digest(algorithm) == GOLDEN[f"maintain.{algorithm}"]
