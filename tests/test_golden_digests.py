"""Byte identity of every certificate and homology table, pinned by sha256.

Each digest is the sha256 of the full stdout of one CLI command.  Unlike
``perfbench/references.json`` they keep the functional coefficients and
the ``index_profile``.  ``construct`` digests pin every vertex
coordinate string of the Z and GF(2) family files, with the default and
with the other truncation parameters.  Homology commands read Z family files written by
``construct`` with the default and with the other truncation parameters,
and GF(2) family files (``construct --ring z2``) with and without
``--oracle``.  ``oracle`` digests cover the closed n = 8 p1 and p3 covers
(boundary pairs copied out of the k = 4 GF(2) family file) and the
``--relative`` complexes of the k = 2..4 GF(2) family files, each on
``--ring z`` and ``z2``.

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
import json
import os
import sys
import tempfile

from toric_cobordism.cli import main

SEEDS = (0, 7, 123)
CERTIFY_CASES = [("complex", k) for k in range(2, 7)] + [("real", 3), ("real", 5)]
PARAMETERS = {"default": (), "other": ("--r1", "1/10", "--r2", "1/3")}
CONSTRUCT_KS = (2, 3, 4, 5)
HOMOLOGY_KS = (2, 3, 4)
GF2_FAMILY = ("--ring", "z2")
GF2_HOMOLOGY_KS = (2, 3)
ORACLE_RINGS = ("z", "z2")
ORACLE_KS = (2, 3, 4)
ORACLE_PIECES = ("p1", "p3")

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
    "construct --k 2 --ring z": "52b093bdceaaed34a49381ff059dbb382365ffc7077b2e21c11b976b7a4a3bb1",
    "construct --k 3 --ring z": "7bb18a3c51b0b7bea1547d02b55e332e9bda4e14604d6480dd03c77c959e5f62",
    "construct --k 4 --ring z": "b5e1c924c4c760283e45820ec03262f7c93caa76306ed0e6343390d48bc3ad22",
    "construct --k 5 --ring z": "7cd0d3c7f9b6349b15b0be672457f09445164d12d098bce0ba07a489719932f4",
    "construct --k 2 --ring z2": "a2dd0914409f145f43cd64713ed994489879d84e4f91e6e4b3368d01cd0aa0c2",
    "construct --k 3 --ring z2": "05c9ad96294788d120d8aaf313d4924d2e38532b24a4b49e8158223fdd57c475",
    "construct --k 4 --ring z2": "ad1f0c1a6cfd059bb53893b7c5954c5c571f1db7a990015e2cbed53b748b9b91",
    "construct --k 5 --ring z2": "945dea8520ed14d129d6e853e25f65e96ecb73cf26012fb5e93096922557dc26",
    "construct --k 2 --ring z --r1 1/10 --r2 1/3": "0c7b8b185cd8115492723395626be66c6f6d90f2441dcfb8a1cb11494fa70c19",
    "construct --k 3 --ring z --r1 1/10 --r2 1/3": "02289d3c16d78c0049c8fe8cd5ebe1284e6cfd135800ed2241607ee532d857bf",
    "construct --k 4 --ring z --r1 1/10 --r2 1/3": "bb1429697bf7c88c92465f0493f5e1957400ff89523ec24c91ad5d26eedc64c0",
    "construct --k 5 --ring z --r1 1/10 --r2 1/3": "01276be7ad7b4f6873eb0a46c2ced758a5759633801e236dd478c32b416bfa2e",
    "construct --k 2 --ring z2 --r1 1/10 --r2 1/3": "3724a4d0279841189298995dc366276109721f975507d32af0566503bc024dae",
    "construct --k 3 --ring z2 --r1 1/10 --r2 1/3": "f0bf5c7fea2f4f00d79243fdbf3434e2b8ee41d088e891de60d94c0601ba39c4",
    "construct --k 4 --ring z2 --r1 1/10 --r2 1/3": "71380c15905a588d11937a1ad0963a78e91c1bf9a95f24a46ac2802e2d6cf1b6",
    "construct --k 5 --ring z2 --r1 1/10 --r2 1/3": "da4a8a7cac5567f7f52914f2cf9ed0af275d56a276af991fa9e79f4df79ef92e",
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
    "homology z2 k=2 --seed 0": "017339c1db72aff066fc7d9228c2faa70d9992a116c88bf43a1ebb2e402b27b7",
    "homology z2 k=2 --seed 0 --oracle": "91feec4c382c37677b6e3b8a11782b5ad4fe6e6389e96046e01df3878fa4da42",
    "homology z2 k=2 --seed 7": "b739c0ef1bde06fd2c42b031e753381ba564531b4b7aa2ebb461e9f7e9eaed63",
    "homology z2 k=2 --seed 7 --oracle": "e01412ee9556884f59b9605040da3683d9feb931a632a084e8cc6a6126aa6a2a",
    "homology z2 k=2 --seed 123": "673afbc5cc5902c5a86500eccf9b506fac8f20e7aa033a66703e3a7e984032f1",
    "homology z2 k=2 --seed 123 --oracle": "3c3a21f942fc01700660ee056b0080203c59847236a14230029e6bbe1cc19624",
    "homology z2 k=3 --seed 0": "5e4f3985ca872886459187dae69087dfc46e617e7a1ddd1cf0ea2d0c80c98dca",
    "homology z2 k=3 --seed 0 --oracle": "548fdc0254e064576d262aefe34f5d7c5d8f0ce86769e0f00e53f1b7f8a1530f",
    "homology z2 k=3 --seed 7": "cc86217b02246b1c5ea8a4fedb789c78bfe597dd3147156e2549be0f197041b8",
    "homology z2 k=3 --seed 7 --oracle": "9a5e53336f4cdcda5f8247d2a2b2f95fa1db94bc3f585b996b25bddadfa0de59",
    "homology z2 k=3 --seed 123": "2c3b9e45af5428d3876160a62a23a0a5d46164e3c865fba1dc93f8e854f31933",
    "homology z2 k=3 --seed 123 --oracle": "4fe0d80dfb43f72cc679f54fd4ba376229d442f23163e3b1a86672dda7eac26c",
    "oracle n8 p1 --ring z": "5e23bb8f7c0309adc43ed76ff61614ce590478e042f8f2cd251adc4b537c56f9",
    "oracle n8 p1 --ring z2": "bb021f69c810305421f05ee7f239b100d850b68a9983350daee1c015c3db19d8",
    "oracle n8 p3 --ring z": "08d73710e01ff523613997e1b2a7d47a012392af2f0dc9ab2ade3e0765f7993b",
    "oracle n8 p3 --ring z2": "27da52546c7329a844daacbc1f5d944d0ad15b8ec3aa566d182b81874b283fee",
    "oracle z2 k=2 --relative --ring z": "f2693e4689ee730dd1fee85b82ba63b3e8a71a764dea9915d51a9ccaf15a6682",
    "oracle z2 k=2 --relative --ring z2": "735a69362b19b828c172bd8414c1d5eab407ce7c882ae40bc7919b620066fb61",
    "oracle z2 k=3 --relative --ring z": "375296f817f78a07d2f2150343fbb21b04f70025c1d7382fcd7c576ff6ab9b8e",
    "oracle z2 k=3 --relative --ring z2": "b2ec90a6f95ccb632d83978d2b93dd8774366f4c5cf3091034742b71661702f9",
    "oracle z2 k=4 --relative --ring z": "b76108be2a8a3f9856a74f7a6f42a4d2282cefcd7c71cc61ae875efb9a5aec3b",
    "oracle z2 k=4 --relative --ring z2": "ca9d4f1b8388eb51aa7807651662cda6cc3e757d2fe85ddb0a6b20151397f46e",
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


def construct_commands() -> list[str]:
    return [
        " ".join(("construct", "--k", str(k), "--ring", ring, *PARAMETERS[params]))
        for params in PARAMETERS
        for ring in ("z", "z2")
        for k in CONSTRUCT_KS
    ]


def homology_commands() -> list[tuple[str, tuple[str, ...], int]]:
    """(command name, ``construct`` arguments, k) for every homology digest."""
    z = [
        (f"homology {params} k={k} --seed {seed}{' --distinguished' if dist else ''}", PARAMETERS[params], k)
        for params in PARAMETERS
        for k in HOMOLOGY_KS
        for seed in SEEDS
        for dist in (False, True)
    ]
    gf2 = [
        (f"homology z2 k={k} --seed {seed}{' --oracle' if oracle else ''}", GF2_FAMILY, k)
        for k in GF2_HOMOLOGY_KS
        for seed in SEEDS
        for oracle in (False, True)
    ]
    return z + gf2


def oracle_commands() -> list[tuple[str, str, tuple[str, ...]]]:
    """(command name, input file name, ``oracle`` arguments) for every
    oracle digest; ``z2-4.json`` is the k = 4 GF(2) family file and
    ``n8-<piece>.json`` one of its boundary pairs."""
    closed = [
        (f"oracle n8 {piece} --ring {ring}", f"n8-{piece}.json", ("--ring", ring))
        for piece in ORACLE_PIECES
        for ring in ORACLE_RINGS
    ]
    relative = [
        (f"oracle z2 k={k} --relative --ring {ring}", f"z2-{k}.json", ("--relative", "--ring", ring))
        for k in ORACLE_KS
        for ring in ORACLE_RINGS
    ]
    return closed + relative


def compute_digests() -> dict[str, str]:
    out = {cmd: _digest(cmd.split()) for cmd in certify_commands() + construct_commands()}
    with tempfile.TemporaryDirectory() as tmp:

        def family_file(kind: str, k: int, construct_args: tuple[str, ...]) -> str:
            path = os.path.join(tmp, f"{kind}-{k}.json")
            if not os.path.exists(path):
                _stdout(["construct", "--k", str(k), *construct_args, "--out", path])
            return path

        for name, construct_args, k in homology_commands():
            path = family_file(name.split()[1], k, construct_args)
            out[name] = _digest(["homology", "--in", path, *name.split()[3:]])
        for k in ORACLE_KS:
            family_file("z2", k, GF2_FAMILY)
        with open(os.path.join(tmp, "z2-4.json"), encoding="utf-8") as fh:
            boundary = json.load(fh)["boundary"]
        for piece in ORACLE_PIECES:
            with open(os.path.join(tmp, f"n8-{piece}.json"), "w", encoding="utf-8") as fh:
                json.dump(boundary[piece], fh)
        for name, infile, args in oracle_commands():
            out[name] = _digest(["oracle", "--in", os.path.join(tmp, infile), *args])
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
