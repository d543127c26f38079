"""Byte identity of every certificate and homology table, pinned by sha256.

Each digest is the sha256 of the full stdout of one CLI command.  Unlike
``perfbench/references.json`` they keep the functional coefficients and
the ``index_profile``.  Homology commands read Z family files written by
``construct`` with the default and with the other truncation parameters.

Runs under pytest, and also as a plain script for interpreters without
pytest (``PYTHONPATH=src python tests/test_golden_digests.py``), which
prints each mismatching command and exits 1 on any mismatch.  With
``--print`` it prints the current digests in the form of ``GOLDEN``, for
re-recording when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from toric_cobordism.cli import main

SEEDS = (0, 7, 123)
CERTIFY_CASES = [("complex", k) for k in range(2, 7)] + [("real", 3), ("real", 5)]
PARAMETERS = {"default": (), "other": ("--r1", "1/10", "--r2", "1/3")}
HOMOLOGY_KS = (2, 3, 4)

GOLDEN = {
    "certify --kind complex --k 2 --seed 0": "41bab8e2cb6f5c02d7f078981140d074c27fab994a61e875f53b4411fddc1831",
    "certify --kind complex --k 2 --seed 7": "078ae409ee70faaee9d87b93623542391ff4b12100f96cf75b6216e861145e6e",
    "certify --kind complex --k 2 --seed 123": "eada75daa61499d6c803da20ab5722f5dcb81d07b6c92ea01493533f9cb5271b",
    "certify --kind complex --k 3 --seed 0": "626f6255c6081cc36fb1dbbfef411a991b25808dc4f4ce042464ad04659c03df",
    "certify --kind complex --k 3 --seed 7": "8ddb817194dcff574b6febe3a62c89c287c75af1051efb083de7f22c1b119adc",
    "certify --kind complex --k 3 --seed 123": "33ad491055a68d0266326af0e4ef9c022992dde6f75b107ebb0fa1baf5ba26ca",
    "certify --kind complex --k 4 --seed 0": "406436beae784590ec6b388134f5ceb7eb74448c8396a2ca818eaeb9d9b33382",
    "certify --kind complex --k 4 --seed 7": "c5321cbaeb19895fad976c44bcb1712ac2f38a580308feafef956c9033031183",
    "certify --kind complex --k 4 --seed 123": "c7dbb9ab4ce923035e6c2f86eb7a74bdd1f2b58ef30fd6cc516bcd1ce41283ba",
    "certify --kind complex --k 5 --seed 0": "a4293f03fc1cca81525aab4610849a03d396017024b75bb59840c1fa7d3b0841",
    "certify --kind complex --k 5 --seed 7": "2db6089fea4ceaf56987085c5478510ce7e730a561baa03dde8afafc5ca46426",
    "certify --kind complex --k 5 --seed 123": "a5b7f9bfb9d09014e1e39c17fba5b80232e7bfc004017fef5496e5a8921db2b0",
    "certify --kind complex --k 6 --seed 0": "f8231e3981ee8e5a561c363cd2b86d3f77be770baa01f7cd6a9fe2e82ea4d895",
    "certify --kind complex --k 6 --seed 7": "04fcf3a67d9433193dc8af9b03ebfc4955d58ec85f7410e9906496a35ec99dce",
    "certify --kind complex --k 6 --seed 123": "bebe5d9070afd8b56151afd039d1ed2dbad309856ddc1f30808aaea1cdbfd4fe",
    "certify --kind real --k 3 --seed 0": "73e27b8914104471649819a1b6b2e00ee6815d3e2f5af2ac2900c45c701770f2",
    "certify --kind real --k 3 --seed 7": "c6610aa7b941284a4d6a7ac6e319136b9ed19c05555bcb13d6b054f245cf864a",
    "certify --kind real --k 3 --seed 123": "c7b4e90d9ff8e929c377fea2c9072a26b594e592349ceade00f9aa37cde5812b",
    "certify --kind real --k 5 --seed 0": "6e5b08b2a1c5a4e88a08408aee97ee6529067ec24e81c290a44eb1c571c8bae8",
    "certify --kind real --k 5 --seed 7": "bd765aed34f6d41f5bd4111febae264074cad44a463a6ea35a2161e266aba206",
    "certify --kind real --k 5 --seed 123": "91ba2f81e05d8242ba70944a4b1e23cc921ba20578cc7f3c26a3b7722fa898e0",
    "homology default k=2 --seed 0": "94ca03e31e0402a38778c45ac83bbd67a7def8114df618f6891b3d57ad585088",
    "homology default k=2 --seed 0 --distinguished": "94ca03e31e0402a38778c45ac83bbd67a7def8114df618f6891b3d57ad585088",
    "homology default k=2 --seed 7": "d491ba941f448a72b1853f6d4d3f344e7c81048a0f466f0946c8160854c84911",
    "homology default k=2 --seed 7 --distinguished": "e699b38846c4efc366789dc694052c477b83420b009450d68177fd01b921421e",
    "homology default k=2 --seed 123": "278a5ba3b781487f95f4b0f251befd27d003723385dbb9414317adca02111085",
    "homology default k=2 --seed 123 --distinguished": "0df37a20e2b7af8c8c5c6e034a26c567ee9852b4db3540e83941e400371d1b4c",
    "homology default k=3 --seed 0": "746d308acf0ccdce68d91216daab77ed73ab96085b9be50b98568b9423d9282b",
    "homology default k=3 --seed 0 --distinguished": "6662677c2520222a00edba8bb1c40c3f60e2487e7317e8d9e9a69f4b1fa7d311",
    "homology default k=3 --seed 7": "e7f954df59510fb2caf279411e2180f1ec035ff26579e7c6194208d8eaabeff8",
    "homology default k=3 --seed 7 --distinguished": "c38bea71e0d40a70d73ba371e78425451291a6acf8db515a295c0aa9a74563b2",
    "homology default k=3 --seed 123": "25f07f7ea108702fd7154984b8d232345a05f1b3df332b00f804cc2c7d98d6f2",
    "homology default k=3 --seed 123 --distinguished": "1b5e145d968cfb387a8152e5ffba0cd3442ad551d9b5bf6434180ef997ccf3ec",
    "homology default k=4 --seed 0": "98726d784397c04ef7dcceaec47d293bf97606616368c66357652d04ee9b9575",
    "homology default k=4 --seed 0 --distinguished": "15e952f65683c91b337fb6f631dbae9aa44edae51dce95a2d6cca92bf702e9f8",
    "homology default k=4 --seed 7": "931b606e69d86e068410795c5d8c473aed8c690a6c54138a760bdd3b48ba51ff",
    "homology default k=4 --seed 7 --distinguished": "363a7ff49bb4afd74af39fe9149483335214e0e85d417dbb8ec45c2c0862a818",
    "homology default k=4 --seed 123": "9315bfdf5bf2d176b908c808723365d03c0dd81e13b13f67da57c0fc52c93918",
    "homology default k=4 --seed 123 --distinguished": "90356b27935551220874cde01a249496f50c9a2c5f212a93094108f39fbbd501",
    "homology other k=2 --seed 0": "94ca03e31e0402a38778c45ac83bbd67a7def8114df618f6891b3d57ad585088",
    "homology other k=2 --seed 0 --distinguished": "94ca03e31e0402a38778c45ac83bbd67a7def8114df618f6891b3d57ad585088",
    "homology other k=2 --seed 7": "d491ba941f448a72b1853f6d4d3f344e7c81048a0f466f0946c8160854c84911",
    "homology other k=2 --seed 7 --distinguished": "e699b38846c4efc366789dc694052c477b83420b009450d68177fd01b921421e",
    "homology other k=2 --seed 123": "278a5ba3b781487f95f4b0f251befd27d003723385dbb9414317adca02111085",
    "homology other k=2 --seed 123 --distinguished": "0df37a20e2b7af8c8c5c6e034a26c567ee9852b4db3540e83941e400371d1b4c",
    "homology other k=3 --seed 0": "746d308acf0ccdce68d91216daab77ed73ab96085b9be50b98568b9423d9282b",
    "homology other k=3 --seed 0 --distinguished": "6662677c2520222a00edba8bb1c40c3f60e2487e7317e8d9e9a69f4b1fa7d311",
    "homology other k=3 --seed 7": "e7f954df59510fb2caf279411e2180f1ec035ff26579e7c6194208d8eaabeff8",
    "homology other k=3 --seed 7 --distinguished": "c38bea71e0d40a70d73ba371e78425451291a6acf8db515a295c0aa9a74563b2",
    "homology other k=3 --seed 123": "25f07f7ea108702fd7154984b8d232345a05f1b3df332b00f804cc2c7d98d6f2",
    "homology other k=3 --seed 123 --distinguished": "1b5e145d968cfb387a8152e5ffba0cd3442ad551d9b5bf6434180ef997ccf3ec",
    "homology other k=4 --seed 0": "98726d784397c04ef7dcceaec47d293bf97606616368c66357652d04ee9b9575",
    "homology other k=4 --seed 0 --distinguished": "15e952f65683c91b337fb6f631dbae9aa44edae51dce95a2d6cca92bf702e9f8",
    "homology other k=4 --seed 7": "931b606e69d86e068410795c5d8c473aed8c690a6c54138a760bdd3b48ba51ff",
    "homology other k=4 --seed 7 --distinguished": "363a7ff49bb4afd74af39fe9149483335214e0e85d417dbb8ec45c2c0862a818",
    "homology other k=4 --seed 123": "9315bfdf5bf2d176b908c808723365d03c0dd81e13b13f67da57c0fc52c93918",
    "homology other k=4 --seed 123 --distinguished": "90356b27935551220874cde01a249496f50c9a2c5f212a93094108f39fbbd501",
}


def _stdout(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def _digest(argv: list[str]) -> str:
    return hashlib.sha256(_stdout(argv)).hexdigest()


def certify_commands() -> list[str]:
    return [
        f"certify --kind {kind} --k {k} --seed {seed}"
        for kind, k in CERTIFY_CASES
        for seed in SEEDS
    ]


def homology_commands() -> list[tuple[str, str, int]]:
    """(command name, parameter set, k) for every homology digest."""
    return [
        (f"homology {params} k={k} --seed {seed}{' --distinguished' if dist else ''}", params, k)
        for params in PARAMETERS
        for k in HOMOLOGY_KS
        for seed in SEEDS
        for dist in (False, True)
    ]


def compute_digests() -> dict[str, str]:
    out = {cmd: _digest(cmd.split()) for cmd in certify_commands()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, params, k in homology_commands():
            path = os.path.join(tmp, f"{params}-{k}.json")
            if not os.path.exists(path):
                _stdout(["construct", "--k", str(k), *PARAMETERS[params], "--out", path])
            out[name] = _digest(["homology", "--in", path, *name.split()[3:]])
    return out


def test_every_golden_digest_matches(monkeypatch):
    monkeypatch.delenv("TORIC_COBORDISM_SEED", raising=False)
    digests = compute_digests()
    assert set(digests) == set(GOLDEN)
    mismatched = sorted(cmd for cmd in GOLDEN if digests[cmd] != GOLDEN[cmd])
    assert not mismatched


if __name__ == "__main__":
    os.environ.pop("TORIC_COBORDISM_SEED", None)
    digests = compute_digests()
    if "--print" in sys.argv:
        for cmd, digest in digests.items():
            print(f'    "{cmd}": "{digest}",')
        sys.exit(0)
    bad = [cmd for cmd in GOLDEN if digests.get(cmd) != GOLDEN[cmd]]
    bad += [cmd for cmd in digests if cmd not in GOLDEN]
    for cmd in bad:
        print(f"mismatch: {cmd}")
    print(f"{sys.version.split()[0]}: {len(digests) - len(bad)}/{len(digests)} digests match")
    sys.exit(1 if bad else 0)
