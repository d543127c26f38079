import contextlib
import json
import random
import signal

import pytest

from toric_cobordism.cli import main


def run(argv, capsys=None):
    code = main(argv)
    return code


def read(path):
    with open(path) as fh:
        return json.load(fh)


def without_coords(data):
    for v in data["polytope"]["vertices"]:
        v["coords"] = None
    return data


@pytest.fixture
def family_file(tmp_path):
    out = tmp_path / "fam.json"
    assert main(["construct", "--k", "2", "--ring", "z", "--out", str(out)]) == 0
    return out


class TestConstruct:
    def test_k2_facet_count(self, family_file):
        data = read(family_file)
        assert len(data["polytope"]["facets"]) == 8

    def test_z2_is_mod2_of_z(self, tmp_path, family_file):
        out2 = tmp_path / "fam2.json"
        assert main(["construct", "--k", "2", "--ring", "z2", "--out", str(out2)]) == 0
        z = read(family_file)["vectors"]
        z2 = read(out2)["vectors"]
        assert z2 == {fid: [x % 2 for x in v] for fid, v in z.items()}

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--k", "1", "--ring", "z"],
            # k is checked before the real kind's rule that n = 2k is 2 mod 4
            *(["certify", "--k", k, "--kind", "real"] for k in ("-2", "-1", "0", "1")),
        ],
        ids=["construct-k1", "certify-real-k-2", "certify-real-k-1", "certify-real-k0", "certify-real-k1"],
    )
    def test_k1_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "k must be at least 2" in capsys.readouterr().err

    def test_bad_parameters_rejected(self):
        # each pair lies on the boundary of 0 < r1 < r2 and r1 + 2 r2 < 1
        for r1, r2 in (("1/4", "1/4"), ("0", "1/4"), ("1/5", "2/5")):
            assert main(["construct", "--k", "2", "--ring", "z", "--r1", r1, "--r2", r2]) == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["construct", "--k", "2", "--ring", "z", "--out", str(a)])
        main(["construct", "--k", "2", "--ring", "z", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_generated_family_ok(self, family_file, capsys):
        assert main(["validate", "--in", str(family_file)]) == 0

    def test_corrupted_vector_names_vertex(self, tmp_path, family_file, capsys):
        data = read(family_file)
        data["vectors"]["d0"] = data["vectors"]["d1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--in", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "vertex" in out

    @pytest.mark.parametrize("vertex", range(4))
    def test_a_facet_id_listed_twice_counts_once(self, tmp_path, family_file, capsys, vertex):
        """Summing the facet bits would carry a repeated id into the next
        facet's bit; the n = 4 p3 pair must read as if listed once."""
        p3 = read(family_file)["boundary"]["p3"]
        clean = tmp_path / "p3.json"
        clean.write_text(json.dumps(p3))
        fids = p3["polytope"]["vertices"][vertex]["facets"]
        fids.append(fids[0])
        twice = tmp_path / "p3-twice.json"
        twice.write_text(json.dumps(p3))
        for argv in (["validate"], ["oracle", "--ring", "z"]):
            assert main([*argv, "--in", str(clean)]) == 0
            expected = capsys.readouterr().out
            assert main([*argv, "--in", str(twice)]) == 0
            assert capsys.readouterr().out == expected
            if argv == ["validate"]:
                assert expected == "pair: valid at all 4 vertices\n"

    def test_unrealized_pair_reads_in_label_order(self, tmp_path, family_file, capsys):
        p3 = read(family_file)["boundary"]["p3"]
        clean = tmp_path / "p3.json"
        clean.write_text(json.dumps(p3))
        bare = tmp_path / "p3-null.json"
        bare.write_text(json.dumps(without_coords(p3)))
        for argv in (["validate"], ["oracle", "--ring", "z"]):
            assert main([*argv, "--in", str(clean)]) == 0
            expected = capsys.readouterr().out
            assert main([*argv, "--in", str(bare)]) == 0
            assert capsys.readouterr().out == expected

    def test_truncated_json(self, tmp_path, family_file, capsys):
        bad = tmp_path / "trunc.json"
        bad.write_text(family_file.read_text()[:100])
        assert main(["validate", "--in", str(bad)]) == 2


class TestHomology:
    def test_z_table_top_degree(self, tmp_path, family_file):
        out = tmp_path / "h.json"
        assert main(["homology", "--in", str(family_file), "--out", str(out)]) == 0
        table = {row["degree"]: row for row in read(out)["relative_table"]}
        assert table[7]["betti"] == 1 and table[7]["torsion"] == []
        assert table[2]["betti"] == 0

    def test_z2_oracle(self, tmp_path):
        fam = tmp_path / "famr.json"
        out = tmp_path / "hr.json"
        main(["construct", "--k", "2", "--ring", "z2", "--out", str(fam)])
        assert main(
            ["homology", "--in", str(fam), "--oracle", "--out", str(out)]
        ) == 0
        data = read(out)
        table = {row["degree"]: row for row in data["relative_table"]}
        assert table[4]["betti"] == 0 and table[4]["torsion"] == []
        assert data["oracle_agrees"] is True
        assert data["d_n"] == 2

    def test_z2_oracle_disagreeing_top_fails(self, tmp_path, monkeypatch, capsys):
        from toric_cobordism import cellular

        cover_homology = cellular.cover_homology

        def top_group_zero(*args, **kwargs):
            table, cc = cover_homology(*args, **kwargs)
            table[max(table)] = (0, ())
            return table, cc

        fam = tmp_path / "famr.json"
        main(["construct", "--k", "3", "--ring", "z2", "--out", str(fam)])
        monkeypatch.setattr(cellular, "cover_homology", top_group_zero)
        capsys.readouterr()
        assert main(["homology", "--in", str(fam), "--oracle"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["orientable"] is None
        assert data["oracle_agrees"] is False
        assert data["euler_identity"]["cells"] == data["euler_identity"]["index_pairs"]

    def test_z_family_oracle_rejected(self, tmp_path, family_file, capsys):
        """The oracle table is GF(2)-only; on a Z family --oracle is refused,
        not silently dropped."""
        out = tmp_path / "h.json"
        capsys.readouterr()
        assert main(["homology", "--in", str(family_file), "--oracle", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "--oracle needs a GF(2) family" in captured.err

    @pytest.mark.parametrize("flags", [[], ["--oracle"]])
    def test_coordinate_free_family_rejected(self, tmp_path, flags, capsys):
        fam = tmp_path / "famr.json"
        main(["construct", "--k", "2", "--ring", "z2", "--out", str(fam)])
        fam.write_text(json.dumps(without_coords(read(fam))))
        capsys.readouterr()
        assert main(["homology", "--in", str(fam), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_seed_env_override(self, tmp_path, family_file, monkeypatch):
        out = tmp_path / "h7.json"
        monkeypatch.setenv("TORIC_COBORDISM_SEED", "7")
        main(["homology", "--in", str(family_file), "--out", str(out)])
        assert read(out)["seed"] == 7


class TestOracleCommand:
    def test_closed_pair_table(self, tmp_path):
        from toric_cobordism.family import build_family

        fam = build_family(2, "GF2")
        pair = tmp_path / "p3.json"
        pair.write_text(json.dumps(fam.boundary["p3"].to_json_dict()))
        out = tmp_path / "table.json"
        assert main(
            ["oracle", "--in", str(pair), "--ring", "z2", "--out", str(out)]
        ) == 0
        table = read(out)["table"]
        assert [row["betti"] for row in table] == [1, 1, 1, 1]

    def test_coordinate_free_pair(self, tmp_path, capsys):
        from toric_cobordism.family import build_family

        data = build_family(2, "GF2").boundary["p3"].to_json_dict()
        pair = tmp_path / "p3.json"
        bare = tmp_path / "p3_bare.json"
        pair.write_text(json.dumps(data))
        bare.write_text(json.dumps(without_coords(data)))
        outputs = []
        for path in (pair, bare):
            assert main(["oracle", "--in", str(path), "--ring", "z"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_family_requires_relative(self, tmp_path, family_file):
        assert main(["oracle", "--in", str(family_file), "--ring", "z"]) == 2


class TestEquiv:
    def test_p3_vs_standard(self, tmp_path):
        from toric_cobordism.charpair import standard_pair
        from toric_cobordism.family import build_family

        fam = build_family(2, "Z")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(fam.boundary["p3"].to_json_dict()))
        b.write_text(json.dumps(standard_pair("complex_projective", 3).to_json_dict()))
        out = tmp_path / "w.json"
        assert main(["equiv", "--pair1", str(a), "--pair2", str(b), "--out", str(out)]) == 0
        assert read(out)["verified"] is True

    def test_no_translation(self, tmp_path, capsys):
        from toric_cobordism.charpair import standard_pair

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(standard_pair("complex_projective", 2).to_json_dict()))
        b.write_text(json.dumps(standard_pair("complex_projective", 3).to_json_dict()))
        assert main(["equiv", "--pair1", str(a), "--pair2", str(b)]) == 1

    @pytest.mark.parametrize("ring", ["Z", "GF2"])
    def test_rank_zero_pair_against_itself(self, tmp_path, ring):
        """A rank-0 pair is carried to itself by the empty delta."""
        from toric_cobordism.charpair import CharacteristicFunction, CharacteristicPair
        from toric_cobordism.polytope import simplex

        a = tmp_path / "a.json"
        pair = CharacteristicPair(simplex(2), CharacteristicFunction(ring, 0, {}))
        a.write_text(json.dumps(pair.to_json_dict()))
        out = tmp_path / "w.json"
        assert main(["equiv", "--pair1", str(a), "--pair2", str(a), "--out", str(out)]) == 0
        assert read(out) == {
            "translation": {
                "ring": ring,
                "facet_map": {"d0": "d0", "d1": "d1", "d2": "d2"},
                "delta": [],
            },
            "verified": True,
        }


class TestCertify:
    def test_complex_k2(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(
            ["certify", "--k", "2", "--kind", "complex", "--out", str(out)]
        ) == 0
        data = read(out)
        assert data["ok"] is True
        assert data["boundary"]["standard"] == "CP3"
        assert data["boundary"]["conjugate"] is True
        assert data["gluing"]["orientation_effect"] == -1

    def test_real_k3(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["certify", "--k", "3", "--kind", "real", "--out", str(out)]) == 0
        assert read(out)["boundary"]["standard"] == "RP5"

    def test_real_k2_rejected(self, capsys):
        assert main(["certify", "--k", "2", "--kind", "real"]) == 2

    def test_wrong_phi_fails_its_check(self, monkeypatch, capsys):
        from toric_cobordism import family

        monkeypatch.setattr(
            family, "phi_facet_map", lambda n: {f"d{j}": f"d{j}" for j in range(n + 1)}
        )
        capsys.readouterr()
        assert main(["certify", "--k", "2", "--kind", "complex"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["validation"]["p1_p2_isomorphic"] is False
        assert "check failed: p1_p2_isomorphic" in captured.err.splitlines()
        assert "Traceback" not in captured.err

    def test_round_trip_stability(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["certify", "--k", "2", "--kind", "complex", "--seed", "5", "--out", str(a)])
        main(["certify", "--k", "2", "--kind", "complex", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_family_json_reparses_identically(self, family_file):
        from toric_cobordism.family import FamilyDescriptor

        data = read(family_file)
        fam = FamilyDescriptor.from_json_dict(data)
        emitted = fam.to_json_dict()
        emitted["seed"] = data["seed"]
        assert emitted == data


def _set_first_entry(value):
    def mutate(data):
        fid = min(data["vectors"])
        data["vectors"][fid][0] = value
    return mutate


def _set(key, value):
    def mutate(data):
        data[key] = value
    return mutate


def _vertex_as_list(data):
    vertex = data["polytope"]["vertices"][0]
    data["polytope"]["vertices"][0] = [vertex["coords"], vertex["facets"]]


def _empty_vectors_without_rank(data):
    data["vectors"] = {}
    del data["rank"]


PAIR_MUTATIONS = {
    "float-entry": _set_first_entry(1.5),
    "bool-entry": _set_first_entry(True),
    "string-entry": _set_first_entry("1"),
    "string-rank": _set("rank", "3"),
    "float-rank": _set("rank", 3.0),
    "bool-rank": _set("rank", True),
    "negative-rank": _set("rank", -1),
    "vectors-list": _set("vectors", []),
    "vectors-null": _set("vectors", None),
    "no-rank-no-vectors": _empty_vectors_without_rank,
    "vertex-list": _vertex_as_list,
}

FAMILY_MUTATIONS = {
    "boundary-list": _set("boundary", []),
    "boundary-null": _set("boundary", None),
    "vectors-list": _set("vectors", []),
    "float-n": _set("n", 4.0),
    "float-entry": _set_first_entry(0.5),
}


class TestInputContract:
    """Malformed pair and family files exit 2 with one error line."""

    @staticmethod
    def _assert_rejected(argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("name", sorted(PAIR_MUTATIONS))
    def test_malformed_pair(self, tmp_path, name, capsys):
        from toric_cobordism.family import build_family

        data = build_family(2, "GF2").boundary["p3"].to_json_dict()
        good = tmp_path / "good.json"
        good.write_text(json.dumps(data))
        PAIR_MUTATIONS[name](data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        self._assert_rejected(["validate", "--in", str(bad)], capsys)
        self._assert_rejected(["oracle", "--in", str(bad), "--ring", "z"], capsys)
        self._assert_rejected(["equiv", "--pair1", str(bad), "--pair2", str(good)], capsys)

    @pytest.mark.parametrize("dim", [0, 1, 3])
    def test_pair_without_vertices(self, tmp_path, dim, capsys):
        from toric_cobordism.family import build_family

        data = build_family(2, "GF2").boundary["p3"].to_json_dict()
        good = tmp_path / "good.json"
        good.write_text(json.dumps(data))
        data.update(polytope={"dim": dim, "facets": [], "vertices": []}, rank=0, vectors={})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for ring in ("z", "z2"):
            err = self._assert_rejected(["oracle", "--in", str(bad), "--ring", ring], capsys)
            assert "at least one vertex" in err
        self._assert_rejected(["validate", "--in", str(bad)], capsys)
        self._assert_rejected(["equiv", "--pair1", str(bad), "--pair2", str(good)], capsys)
        self._assert_rejected(["equiv", "--pair1", str(good), "--pair2", str(bad)], capsys)

    @pytest.mark.parametrize("name", sorted(FAMILY_MUTATIONS))
    def test_malformed_family(self, tmp_path, name, capsys):
        fam = tmp_path / "fam.json"
        main(["construct", "--k", "2", "--ring", "z2", "--out", str(fam)])
        data = read(fam)
        FAMILY_MUTATIONS[name](data)
        fam.write_text(json.dumps(data))
        self._assert_rejected(["validate", "--in", str(fam)], capsys)
        self._assert_rejected(["homology", "--in", str(fam), "--oracle"], capsys)
        self._assert_rejected(["oracle", "--in", str(fam), "--ring", "z", "--relative"], capsys)

    @pytest.mark.parametrize("k", [5, None, "3", True], ids=["5", "null", "string", "bool"])
    def test_family_k_is_half_n(self, tmp_path, k, capsys):
        fam = tmp_path / "fam3.json"
        main(["construct", "--k", "3", "--ring", "z2", "--out", str(fam)])
        data = read(fam)
        data["k"] = k
        fam.write_text(json.dumps(data))
        err = self._assert_rejected(["homology", "--in", str(fam), "--oracle"], capsys)
        assert "n must be 2k" in err
        self._assert_rejected(["validate", "--in", str(fam)], capsys)

    def test_family_n_is_the_polytope_dimension(self, tmp_path, capsys):
        """n = 2000 over the n = 4 polytope once reported a reflection
        count built for n = 2000; the file is now refused as it is read."""
        fam = tmp_path / "fam2.json"
        main(["construct", "--k", "2", "--ring", "z2", "--out", str(fam)])
        data = read(fam)
        data["n"], data["k"], data["vectors"] = 2000, 1000, {}
        fam.write_text(json.dumps(data))
        for argv in (
            ["homology", "--in", str(fam), "--oracle"],
            ["homology", "--in", str(fam)],
            ["validate", "--in", str(fam)],
            ["oracle", "--in", str(fam), "--relative", "--ring", "z"],
        ):
            with _time_limit(1, argv[0]):
                err = self._assert_rejected(argv, capsys)
            assert "the polytope has dimension 4, not n = 2000" in err

    def test_deeply_nested_json(self, tmp_path, capsys):
        """A nesting deeper than the JSON decoder recurses is unreadable input."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        good = tmp_path / "good.json"
        main(["construct", "--k", "2", "--ring", "z2", "--out", str(good)])
        for argv in (
            ["validate", "--in", str(deep)],
            ["equiv", "--pair1", str(good), "--pair2", str(deep)],
            ["oracle", "--in", str(deep), "--ring", "z2"],
        ):
            err = self._assert_rejected(argv, capsys)
            assert err.startswith(f"error: cannot read {deep}: ")

    def test_family_phi_off_the_vertices(self, tmp_path, family_file, capsys):
        data = read(family_file)
        data["maps"]["phi"] = {f: f for f in data["maps"]["phi"]}
        family_file.write_text(json.dumps(data))
        for argv in (
            ["validate", "--in", str(family_file)],
            ["homology", "--in", str(family_file)],
            ["oracle", "--in", str(family_file), "--relative"],
        ):
            assert "phi does not carry" in self._assert_rejected(argv, capsys)


@pytest.fixture
def z2_family_file(tmp_path):
    out = tmp_path / "fam2.json"
    assert main(["construct", "--k", "2", "--ring", "z2", "--out", str(out)]) == 0
    return out


def _one_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


class TestRelativeOracle:
    @pytest.mark.parametrize("ring", ["z", "z2"])
    def test_basepoint_on_both_rings(self, z2_family_file, ring, capsys):
        capsys.readouterr()
        assert main(["oracle", "--in", str(z2_family_file), "--relative", "--ring", ring]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cells"][0] == 0
        assert data["table"][0] == {"degree": 0, "betti": 1, "torsion": []}

    def test_closed_pair_rejected(self, tmp_path, capsys):
        from toric_cobordism.family import build_family

        pair = tmp_path / "p3.json"
        pair.write_text(json.dumps(build_family(2, "GF2").boundary["p3"].to_json_dict()))
        capsys.readouterr()
        assert main(["oracle", "--in", str(pair), "--ring", "z", "--relative"]) == 2
        assert capsys.readouterr().out == ""


class TestErrorsReportedFromMain:
    """Inputs that once ended in a traceback or a hang exit 1 or 2 with one line."""

    @staticmethod
    def _homology(tmp_path, data):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        return main(["homology", "--in", str(path)])

    def test_vertices_at_one_point(self, tmp_path, family_file, capsys):
        data = read(family_file)
        vertices = data["polytope"]["vertices"]
        vertices[1]["coords"] = list(vertices[0]["coords"])
        capsys.readouterr()
        assert self._homology(tmp_path, data) == 2
        _one_line(capsys, "error:")

    @pytest.mark.parametrize("where", ["coords", "r1"])
    def test_zero_denominator(self, tmp_path, family_file, capsys, where):
        data = read(family_file)
        if where == "coords":
            data["polytope"]["vertices"][1]["coords"][0] = "1/0"
        else:
            data["r1"] = "1/0"
        capsys.readouterr()
        assert self._homology(tmp_path, data) == 2
        _one_line(capsys, "error:")

    @pytest.mark.parametrize("entry", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_coordinate(self, tmp_path, family_file, capsys, entry):
        # JSON's Infinity and NaN literals read as floats no Fraction holds
        data = read(family_file)
        data["polytope"]["vertices"][1]["coords"][0] = entry
        capsys.readouterr()
        assert self._homology(tmp_path, data) == 2
        _one_line(capsys, "error:")

    def test_coordinate_vector_one_short(self, tmp_path, family_file, capsys):
        data = read(family_file)
        vertices = data["polytope"]["vertices"]
        vertices[1]["coords"] = vertices[0]["coords"][:-1]
        capsys.readouterr()
        assert self._homology(tmp_path, data) == 2
        _one_line(capsys, "error:")

    def test_edge_with_three_vertices(self, tmp_path, family_file, capsys):
        data = read(family_file)
        facets = data["polytope"]["vertices"][1]["facets"]
        facets[facets.index("p2")] = "p1"
        capsys.readouterr()
        assert self._homology(tmp_path, data) == 2
        _one_line(capsys, "error:")

    def test_index_count_disagrees(self, tmp_path, family_file, capsys):
        data = read(family_file)
        data["polytope"]["vertices"][10]["coords"][3] = 7
        capsys.readouterr()
        assert self._homology(tmp_path, data) == 1
        _one_line(capsys, "check failed:")

    def test_non_integer_seed(self, family_file, monkeypatch, capsys):
        monkeypatch.setenv("TORIC_COBORDISM_SEED", "abc")
        capsys.readouterr()
        assert main(["homology", "--in", str(family_file)]) == 2
        _one_line(capsys, "error:")

    def test_non_strict_family(self, tmp_path, family_file, capsys):
        data = read(family_file)
        for facet in data["polytope"]["facets"]:
            if facet["id"] == "p1":
                facet["tag"] = "original"
        capsys.readouterr()
        assert self._homology(tmp_path, data) == 2
        _one_line(capsys, "error:")

    def test_no_strict_option_removed(self, family_file):
        with pytest.raises(SystemExit) as exc:
            main(["homology", "--in", str(family_file), "--no-strict"])
        assert exc.value.code == 2


class TestInputGuards:
    """Four guards that no other test reaches: each exits with its code and
    one line that names the cause."""

    @staticmethod
    def _write(tmp_path, data):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_two_vertices_on_one_facet_set(self, tmp_path, capsys):
        from toric_cobordism.charpair import standard_pair

        data = standard_pair("complex_projective", 3).to_json_dict()
        vertices = data["polytope"]["vertices"]
        vertices[1]["facets"] = list(vertices[0]["facets"])
        capsys.readouterr()
        assert main(["validate", "--in", self._write(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.err.endswith(": two vertices lie on the same facet set\n")

    def test_more_vectors_than_the_rank(self, tmp_path, capsys):
        from toric_cobordism.charpair import CharacteristicFunction, CharacteristicPair
        from toric_cobordism.polytope import simplex

        vectors = {"d0": (1, 0), "d1": (0, 1), "d2": (1, 1), "d3": (1, -1)}
        pair = CharacteristicPair(simplex(3), CharacteristicFunction("Z", 2, vectors))
        capsys.readouterr()
        assert main(["validate", "--in", self._write(tmp_path, pair.to_json_dict())]) == 1
        captured = capsys.readouterr()
        # every vertex of the 3-simplex lies on three facets
        assert captured.out.splitlines() == [
            f"pair: vertex {v}: 3 assigned vectors exceed group rank" for v in range(4)
        ]
        assert captured.err == ""

    def test_pair1_vectors_do_not_span(self, tmp_path, capsys):
        from toric_cobordism.charpair import standard_pair

        data = standard_pair("complex_projective", 2).to_json_dict()
        data["vectors"] = {"d0": [1, 0], "d1": [1, 0]}
        path = self._write(tmp_path, data)
        capsys.readouterr()
        assert main(["equiv", "--pair1", path, "--pair2", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pair1 has no independent spanning facet set\n"

    def test_r1_not_a_rational(self, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--k", "2", "--kind", "complex", "--r1", "abc"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("argument --r1: not a rational: 'abc'")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command", ["construct", "homology", "oracle", "equiv", "certify"]
)
@pytest.mark.parametrize("target", ["missing-dir/x.json", "."], ids=["missing-dir", "dir"])
def test_unwritable_out_exits_2(tmp_path, z2_family_file, command, target, capsys):
    fam = str(z2_family_file)
    argv = {
        "construct": ["construct", "--k", "2"],
        "homology": ["homology", "--in", fam],
        "oracle": ["oracle", "--in", fam, "--relative"],
        "equiv": ["equiv", "--pair1", fam, "--pair2", fam],
        "certify": ["certify", "--k", "2", "--kind", "complex"],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


class TestSharedParser:
    """``main`` builds its parser once per process; no call leaves state
    behind for the next."""

    @staticmethod
    def _certify(capsys, *flags):
        capsys.readouterr()
        assert main(["certify", "--k", "2", "--kind", "complex", *flags]) == 0
        return capsys.readouterr().out

    def test_parser_is_shared(self):
        from toric_cobordism.cli import build_parser

        assert build_parser() is build_parser()

    def test_seed_returns_to_its_default(self, capsys):
        assert json.loads(self._certify(capsys, "--seed", "3"))["seed"] == 3
        assert json.loads(self._certify(capsys))["seed"] == 0

    def test_out_does_not_leak(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert self._certify(capsys, "--out", str(out)) == ""
        text = out.read_text()
        assert json.loads(self._certify(capsys)) == json.loads(text)
        assert out.read_text() == text

    def test_seed_variable_read_on_each_call(self, monkeypatch, capsys):
        monkeypatch.delenv("TORIC_COBORDISM_SEED", raising=False)
        assert json.loads(self._certify(capsys))["seed"] == 0
        monkeypatch.setenv("TORIC_COBORDISM_SEED", "7")
        assert json.loads(self._certify(capsys))["seed"] == 7

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--k", "2", "--kind", "quaternionic"])
        assert exc.value.code == 2
        assert json.loads(self._certify(capsys))["ok"] is True


_WRONG_TYPED = (None, 7, -1, 2.5, 4.0, True, "x", "1/0", [], [1], {}, {"a": 1})


def _json_paths(node, prefix=()):
    """Every path of keys and list positions below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _mutate(data, rng):
    """A copy of ``data`` with one key dropped, one value nulled or
    swapped for a wrong-typed one, or one list shortened or lengthened."""
    data = json.loads(json.dumps(data))
    kind = rng.choice(("drop", "null", "wrong", "list"))
    if kind == "list":
        lists = [p for p in _json_paths(data) if isinstance(_at(data, p), list) and _at(data, p)]
        items = _at(data, rng.choice(lists))
        if rng.random() < 0.5:
            del items[rng.randrange(len(items))]
        else:
            items.insert(rng.randrange(len(items) + 1), json.loads(json.dumps(rng.choice(items))))
        return data
    path = rng.choice(list(_json_paths(data)))
    parent = _at(data, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "null":
        parent[path[-1]] = None
    else:
        old = parent[path[-1]]
        parent[path[-1]] = rng.choice([w for w in _WRONG_TYPED if type(w) is not type(old)])
    return data


CALL_TIME_LIMIT_S = 10


@contextlib.contextmanager
def _time_limit(seconds, what):
    """Fail the running test, naming ``what``, if the block outlasts ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"{what} ran longer than {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_seeded_mutations_keep_the_exit_code_contract(tmp_path, capsys):
    from toric_cobordism.family import build_family

    good = build_family(2, "GF2").boundary["p3"].to_json_dict()
    sources = [
        ("pair", good),
        ("gf2-family", build_family(2, "GF2").to_json_dict()),
        ("z-family", build_family(2, "Z").to_json_dict()),
    ]
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(good))
    path = tmp_path / "mutant.json"
    rng = random.Random(20261018)
    for i in range(400):
        name, source = sources[i % len(sources)]
        path.write_text(json.dumps(_mutate(source, rng)))
        relative = [] if name == "pair" else ["--relative"]
        oracle = ["--oracle"] if name == "gf2-family" else []
        for argv in (
            ["validate", "--in", str(path)],
            ["oracle", "--in", str(path), "--ring", "z", *relative],
            ["equiv", "--pair1", str(path), "--pair2", str(good_path)],
            ["homology", "--in", str(path), *oracle],
        ):
            with _time_limit(CALL_TIME_LIMIT_S, f"mutation {i} of {name}: {argv[0]}"):
                code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 2), (i, name, argv[0])
            assert "Traceback" not in captured.err, (i, name, argv[0])


class TestOversizedRank:
    """A declared rank far above the polytope's dimension asks for more
    cells than the oracle builds: the count is taken before any cell is,
    so the command exits 2 at once and names it."""

    RANK = 40

    @staticmethod
    def _padded(vectors, rank):
        return {fid: v + [0] * (rank - len(v)) for fid, v in vectors.items()}

    def _assert_ceiling(self, argv, capsys, ceiling=4194304):
        capsys.readouterr()
        with _time_limit(CALL_TIME_LIMIT_S, argv[0]):
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the complex would have ")
        assert f"more than the ceiling {ceiling}" in captured.err
        assert captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("ring", ["z", "z2"])
    def test_pair(self, tmp_path, ring, capsys):
        from toric_cobordism.family import build_family

        data = build_family(2, "GF2").boundary["p3"].to_json_dict()
        data["rank"] = self.RANK
        data["vectors"] = self._padded(data["vectors"], self.RANK)
        path = tmp_path / "rank40.json"
        path.write_text(json.dumps(data))
        self._assert_ceiling(["oracle", "--in", str(path), "--ring", ring], capsys)

    def test_closed_rp22(self, tmp_path, capsys):
        """RP^22 has rank 22 = dim: its 2^23 faces were listed before any
        cell was counted, until a MemoryError traceback; a vertex's 3^22
        cells now stop it first, with the one error line."""
        from toric_cobordism.charpair import standard_pair

        path = tmp_path / "rp22.json"
        path.write_text(json.dumps(standard_pair("real_projective", 22).to_json_dict()))
        self._assert_ceiling(["oracle", "--in", str(path), "--ring", "z2"], capsys)

    @pytest.mark.parametrize("rank", [5000, 20000, 10**12])
    def test_huge_rank(self, tmp_path, rank, capsys):
        """The polytope face alone has 2^rank cells, so the rank is refused
        before any power of two is formed: the floor's digits once filled
        the error line, overflowed the int-to-string limit, or ran out of
        memory."""
        from toric_cobordism.family import build_family

        data = build_family(2, "GF2").boundary["p3"].to_json_dict()
        data["rank"], data["vectors"] = rank, {}
        path = tmp_path / "huge-rank.json"
        path.write_text(json.dumps(data))
        for ring in ("z", "z2"):
            err = self._assert_ceiling(["oracle", "--in", str(path), "--ring", ring], capsys)
            assert err.startswith(f"error: the complex would have at least 2^{rank} cells,")
            assert len(err) < 200

    def test_family(self, tmp_path, z2_family_file, capsys, monkeypatch):
        """A valid n = 4 family under a ceiling of 8 cells, the 2^3 of its
        polytope face."""
        from toric_cobordism import cellular

        monkeypatch.setattr(cellular, "ORACLE_MAX_CELLS", 8)
        self._assert_ceiling(
            ["homology", "--in", str(z2_family_file), "--oracle"], capsys, ceiling=8
        )
        for ring in ("z", "z2"):
            self._assert_ceiling(
                ["oracle", "--in", str(z2_family_file), "--relative", "--ring", ring],
                capsys,
                ceiling=8,
            )


class TestOversizedK:
    """Delta_Q's coordinate table has 2k(k+2)(2k+1) entries, so time and
    memory grow about as k^3; past the ceiling the command exits 2 before
    any vertex is built, where it once ended in a MemoryError traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--k", "40", "--kind", "complex"],
            ["construct", "--k", "40"],
            ["construct", "--k", "40", "--ring", "z2"],
            ["certify", "--k", "3000", "--kind", "complex"],
        ],
        ids=["certify-complex-k40", "construct-k40", "construct-z2-k40", "certify-complex-k3000"],
    )
    def test_rejected_at_once(self, argv, capsys):
        with _time_limit(1, " ".join(argv)):
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: k = {argv[2]} needs ")
        assert "more than the ceiling 262144" in captured.err
        assert captured.err.count("\n") == 1

    def test_ceiling_lies_between_k39_and_k40(self, monkeypatch):
        from toric_cobordism import family

        class Built(Exception):
            pass

        def build_delta_Q(*args):
            raise Built

        monkeypatch.setattr(family, "build_delta_Q", build_delta_Q)
        with pytest.raises(Built):
            family.build_family(39)
        with pytest.raises(family.FamilyError, match="k = 40 needs 272160 coordinate entries"):
            family.build_family(40)
