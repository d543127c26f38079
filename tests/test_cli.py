import json

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

    def test_k1_rejected(self, capsys):
        assert main(["construct", "--k", "1", "--ring", "z"]) == 2

    def test_bad_parameters_rejected(self):
        assert (
            main(["construct", "--k", "2", "--ring", "z", "--r1", "1/4", "--r2", "1/4"])
            == 2
        )

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
