"""End-to-end tests for the command-line interface.

Every command is run in-process through ``main(argv)`` with captured
stdout/stderr; one test exercises the installed console script.  Expected
values marked [DERIVED] were computed with the library calls that the
lower-level test modules already verify against independent oracles;
[TRIVIAL] values follow directly from the input.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from posetfree.cli import main
from posetfree.lattice import (
    SetFamily,
    family_to_dict,
    family_to_text,
    layer_family,
)

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Family files shared by the tests: a mixed family, a fan-free one,
    a two-layer slab, and the full 2-cube."""
    tmp = tmp_path_factory.mktemp("families")
    mixed = SetFamily(3, (0, 1, 3, 5))
    free = layer_family(3, [1])
    slab = layer_family(4, [1, 2, 3])
    cube2 = SetFamily(2, (0, 1, 2, 3))
    paths = {
        "mixed_txt": tmp / "mixed.txt",
        "mixed_json": tmp / "mixed.json",
        "free": tmp / "free.txt",
        "slab": tmp / "slab.txt",
        "cube2": tmp / "cube2.txt",
    }
    paths["mixed_txt"].write_text(family_to_text(mixed))
    paths["mixed_json"].write_text(json.dumps(family_to_dict(mixed)))
    paths["free"].write_text(family_to_text(free))
    paths["slab"].write_text(family_to_text(slab))
    paths["cube2"].write_text(family_to_text(cube2))
    return {name: str(path) for name, path in paths.items()}


class TestPosetCommands:
    def test_validate_v(self, capsys):
        # [DERIVED] the v fixture: 3 elements, one minimum below two tops.
        payload = run_json(capsys, ["poset", "validate", str(FIXDIR / "v.json")])
        assert payload == {"graded": True, "height": 2, "m": 3, "tree": True}

    def test_validate_all_fixture_files(self, capsys):
        for path in sorted(FIXDIR.glob("*.json")):
            payload = run_json(capsys, ["poset", "validate", str(path)])
            assert set(payload) == {"graded", "height", "m", "tree"}
            assert payload["m"] >= 1
            # every catalogue poset except the butterfly has a tree diagram
            assert payload["tree"] is (path.stem != "butterfly")

    def test_height(self, capsys):
        assert run_json(capsys, ["poset", "height", str(FIXDIR / "chain4.json")]) == 4

    def test_chains(self, capsys):
        # [DERIVED] path4 covers 1<0, 2<0, 2<3 give three maximal chains.
        payload = run_json(capsys, ["poset", "chains", str(FIXDIR / "path4.json")])
        assert payload == [[1, 0], [2, 0], [2, 3]]

    def test_dual(self, capsys):
        # [DERIVED] the dual of v is the two-minima poset (lambda shape).
        payload = run_json(capsys, ["poset", "dual", str(FIXDIR / "v.json")])
        assert payload == {"covers": [[1, 0], [2, 0]], "m": 3}

    def test_blowup_output_is_loadable_poset(self, capsys, tmp_path):
        # [DERIVED] blowing up v at its root with t=2 doubles both tops.
        payload = run_json(
            capsys,
            ["poset", "blowup", str(FIXDIR / "v.json"), "--root", "0", "--t", "2"],
        )
        assert payload["m"] == 5
        assert payload["covers"] == [[0, 1], [0, 2], [0, 3], [0, 4]]
        assert payload["labels"] == [[1, 1], [2, 1], [2, 2], [3, 1], [3, 2]]
        assert payload["root"] == 0 and payload["t"] == 2
        # the extra keys do not stop the file from being read back as a poset
        blown = tmp_path / "blown.json"
        blown.write_text(json.dumps(payload))
        reread = run_json(capsys, ["poset", "validate", str(blown)])
        assert reread["m"] == 5 and reread["tree"] is True

    def test_cover(self, capsys):
        payload = run_json(capsys, ["poset", "cover", str(FIXDIR / "x.json")])
        assert set(payload) == {"chains", "intervals"}
        assert payload["chains"] == [[1, 2, 4], [1, 2, 3], [0, 2, 4]]
        assert payload["intervals"] == [[3], [0]]

    def test_complete_graded_poset_is_identity(self, capsys):
        # [DERIVED] the n fixture is already graded, so completion keeps it.
        payload = run_json(capsys, ["poset", "complete", str(FIXDIR / "n.json")])
        assert payload["poset"] == {"covers": [[0, 1], [2, 1], [2, 3]], "m": 4}
        assert payload["embedding"] == [0, 1, 2, 3]
        assert payload["chain_count"] == 3

    def test_complete_ungraded_poset_grows(self, capsys):
        payload = run_json(capsys, ["poset", "complete", str(FIXDIR / "path4.json")])
        completed = payload["poset"]
        assert completed["m"] >= 4
        assert len(payload["embedding"]) == 4


class TestFamilyCommands:
    def test_profile_text_and_json_inputs_agree(self, capsys, files):
        # [DERIVED] the mixed family meets the six maximal chains of the
        # 3-cube in 1, 2, or 3 members, two chains each.
        expected = {"counts": [0, 2, 2, 2, 0], "mean_members": 2.0, "n": 3}
        assert run_json(capsys, ["family", "profile", files["mixed_txt"]]) == expected
        assert run_json(capsys, ["family", "profile", files["mixed_json"]]) == expected

    def test_marked_count(self, capsys, files):
        payload = run_json(
            capsys, ["family", "marked", "--k", "2", "--a", "1", files["mixed_txt"]]
        )
        assert payload == {"count": 8}

    def test_marked_with_eps_reports_bound(self, capsys, files):
        payload = run_json(
            capsys,
            ["family", "marked", "--k", "2", "--a", "1", "--eps", "0.9", files["slab"]],
        )
        assert payload == {"bound": 10.8, "count": 72, "holds": True}

    def test_marked_with_eps_rejects_small_family(self, capsys, files):
        code, out, err = run(
            capsys,
            ["family", "marked", "--k", "2", "--a", "1", "--eps", "0.5",
             files["mixed_txt"]],
        )
        assert code == 1
        assert out == "" and err.startswith("error:")

    def test_trim(self, capsys, files):
        payload = run_json(
            capsys, ["family", "trim", "--alpha", "0.25", files["mixed_txt"]]
        )
        assert payload == {
            "mid": {"members": [1, 3, 5], "n": 3},
            "tail": {"members": [0], "n": 3},
        }


class TestEmbedCommands:
    def test_check_found(self, capsys, files):
        payload = run_json(
            capsys, ["embed", "check", str(FIXDIR / "v.json"), files["mixed_txt"]]
        )
        assert payload == {"assignment": [0, 3, 1], "found": True}

    def test_check_not_found(self, capsys, files):
        payload = run_json(
            capsys, ["embed", "check", str(FIXDIR / "v.json"), files["free"]]
        )
        assert payload == {"assignment": None, "found": False}

    def test_first_copy_found(self, capsys, files):
        payload = run_json(
            capsys,
            ["embed", "first-copy", str(FIXDIR / "chain2.json"), files["cube2"],
             "--root", "0", "--t", "2"],
        )
        assert payload == {"assignment": [0, 1, 2], "found": True}

    def test_first_copy_not_found(self, capsys, files):
        payload = run_json(
            capsys,
            ["embed", "first-copy", str(FIXDIR / "v.json"), files["free"],
             "--root", "0", "--t", "2"],
        )
        assert payload == {"assignment": None, "found": False}


class TestContainersCommands:
    RUN_ARGS = ["containers", "run", str(FIXDIR / "v.json")]

    def test_run_single_phase_frozen(self, capsys, files):
        # [DERIVED] on the middle layer of the 3-cube only the empty set
        # roots a fan copy, and it is pruned; nothing is carved.
        payload = run_json(
            capsys, self.RUN_ARGS + [files["free"], "--root", "0", "--t", "2"]
        )
        assert payload == {
            "certificate": {"members": [], "n": 3},
            "params": {
                "poset": {"covers": [[0, 1], [0, 2]], "m": 3},
                "root": 0,
                "source": {"members": [0, 1, 2, 3, 4, 5, 6, 7], "n": 3},
                "t": 2,
            },
            "residual": {"members": [1, 2, 3, 4, 5, 6, 7], "n": 3},
            "stats": {"carve_count": 0, "prune_count": 1},
        }

    def test_run_is_reproducible(self, capsys, files):
        argv = self.RUN_ARGS + [files["free"], "--root", "0", "--t", "2"]
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second

    def test_run_then_verify_round_trip(self, capsys, files, tmp_path):
        code, out, err = run(
            capsys, self.RUN_ARGS + [files["free"], "--root", "0", "--t", "2"]
        )
        assert code == 0
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(out)
        report = run_json(
            capsys, ["containers", "verify", str(pair_file), files["free"]]
        )
        assert report == {
            "certificate_small": True,
            "covers_family": True,
            "residual_blowup_free": True,
        }

    def test_verify_flags_uncovered_family(self, capsys, files, tmp_path):
        code, out, _ = run(
            capsys, self.RUN_ARGS + [files["free"], "--root", "0", "--t", "2"]
        )
        assert code == 0
        pair_file = tmp_path / "pair.json"
        pair_file.write_text(out)
        # the mixed family is not sandwiched by this pair: exit stays 0,
        # the report carries the failure
        report = run_json(
            capsys, ["containers", "verify", str(pair_file), files["mixed_txt"]]
        )
        assert report["covers_family"] is False

    def test_run_two_phase_defaults(self, capsys, files):
        payload = run_json(
            capsys, self.RUN_ARGS + [files["free"], "--root", "0", "--two-phase"]
        )
        # composed pair reports the fine-phase parameters: t2 = bit length
        # of n-1 = 2, source = coarse-phase residual
        assert payload["params"]["t"] == 2
        assert payload["params"]["source"] == {
            "members": [1, 2, 3, 4, 5, 6, 7],
            "n": 3,
        }
        # one prune in the coarse phase (the empty set), none in the fine one
        assert payload["stats"] == {"carve_count": 0, "prune_count": 1}

    def test_run_two_phase_explicit_t2(self, capsys, files):
        payload = run_json(
            capsys,
            self.RUN_ARGS
            + [files["free"], "--root", "0", "--two-phase", "--t2", "1"],
        )
        assert payload["params"]["t"] == 1

    def test_run_rejects_family_with_copy(self, capsys, files):
        code, out, err = run(
            capsys, self.RUN_ARGS + [files["mixed_txt"], "--root", "0", "--t", "2"]
        )
        assert code == 1
        assert "error:" in err

    def test_run_requires_t_without_two_phase(self, capsys, files):
        code, out, err = run(capsys, self.RUN_ARGS + [files["free"], "--root", "0"])
        assert code == 2
        assert "--t is required" in err

    def test_run_with_explicit_source(self, capsys, files, tmp_path):
        source = tmp_path / "source.txt"
        source.write_text(family_to_text(SetFamily(3, (1, 2, 3, 4))))
        payload = run_json(
            capsys,
            self.RUN_ARGS
            + [files["free"], "--root", "0", "--t", "2", "--source", str(source)],
        )
        assert payload["params"]["source"] == {"members": [1, 2, 3, 4], "n": 3}


class TestCensusCommands:
    def test_count(self, capsys):
        # [DERIVED] brute-force count of 2-chain-free families of the
        # 4-cube, i.e. the number of antichains, is 168.
        argv = ["census", "count", "--poset", str(FIXDIR / "chain2.json"), "--n", "4"]
        assert run_json(capsys, argv) == 168

    def test_count_threads_match_sequential(self, capsys):
        base = ["census", "count", "--poset", str(FIXDIR / "v.json"), "--n", "3"]
        assert run_json(capsys, base) == run_json(capsys, base + ["--threads", "2"])

    def test_la(self, capsys):
        argv = ["census", "la", "--poset", str(FIXDIR / "chain2.json"), "--n", "4"]
        assert run_json(capsys, argv) == 6

    def test_e_lower(self, capsys):
        argv = ["census", "e-lower", "--poset", str(FIXDIR / "chain3.json"), "--n", "5"]
        assert run_json(capsys, argv) == 2

    def test_experiment_frozen_csv(self, capsys):
        argv = [
            "census", "experiment", "--poset", str(FIXDIR / "chain2.json"),
            "--n", "2,3", "--seed", "7", "--samples", "3",
        ]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert out == (
            "n,count,la,lower_bound,distinct_pairs,max_residual_size,"
            "max_residual_normalized,upper_expression\n"
            "2,6,2,4,3,1,0.5,6\n"
            "3,20,3,8,2,4,1.3333333333333333,32\n"
        )

    def test_experiment_is_reproducible(self, capsys):
        argv = [
            "census", "experiment", "--poset", str(FIXDIR / "v.json"),
            "--n", "3", "--seed", "11", "--samples", "4",
        ]
        assert run(capsys, argv) == run(capsys, argv)

    def test_count_over_cap_is_domain_error(self, capsys):
        code, out, err = run(
            capsys,
            ["census", "count", "--poset", str(FIXDIR / "chain2.json"), "--n", "9"],
        )
        assert code == 1
        assert err.startswith("error:")

    def test_experiment_requires_seed(self, capsys):
        code, out, err = run(
            capsys,
            ["census", "experiment", "--poset", str(FIXDIR / "v.json"), "--n", "3"],
        )
        assert code == 2


class TestOutputAndExitCodes:
    def test_missing_file_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["poset", "validate", "/no/such/file.json"])
        assert code == 1 and err.startswith("error:")

    def test_malformed_json_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, out, err = run(capsys, ["poset", "validate", str(bad)])
        assert code == 1 and err.startswith("error:")

    def test_invalid_poset_dict_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2}')
        code, out, err = run(capsys, ["poset", "validate", str(bad)])
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "caps", ["5", "null", "[]", '"la_n"', '{"la_n": true}', '{"la_n": 0}']
    )
    def test_malformed_caps_is_domain_error(self, capsys, monkeypatch, caps):
        monkeypatch.setenv("POSET_CONTAINERS_CAPS", caps)
        code, out, err = run(
            capsys, ["census", "la", "--poset", str(FIXDIR / "v.json"), "--n", "2"]
        )
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("alpha", ["0.9", "-1", "nan"])
    def test_trim_alpha_outside_half_is_domain_error(self, capsys, files, alpha):
        code, out, err = run(
            capsys, ["family", "trim", "--alpha", alpha, files["mixed_txt"]]
        )
        assert code == 1 and out == "" and err.startswith("error: alpha")

    @pytest.mark.parametrize(
        "text",
        ['{"n": 3, "members": [2.7]}', '{"n": 3, "members": ["5"]}', '{"n": 3}'],
    )
    def test_malformed_family_json_is_domain_error(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, ["family", "profile", str(bad)])
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("params",), None),
            (("certificate",), None),
            (("residual",), None),
            (("params", "poset"), None),
            (("params", "root"), None),
            (("params", "t"), None),
            (("params", "source"), None),
            (("params", "root"), 0.0),
            (("params", "t"), True),
            (("params", "t"), "2"),
            (("stats", "prune_count"), 1.5),
            (("stats", "carve_count"), False),
        ],
    )
    def test_malformed_pair_json_is_domain_error(
        self, capsys, files, tmp_path, path, value
    ):
        # a valid pair with one entry removed (value None) or retyped
        code, out, _ = run(
            capsys,
            ["containers", "run", str(FIXDIR / "v.json"), files["free"],
             "--root", "0", "--t", "2"],
        )
        assert code == 0
        pair = json.loads(out)
        *parents, key = path
        entry = pair
        for name in parents:
            entry = entry[name]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(pair))
        code, out, err = run(capsys, ["containers", "verify", str(bad), files["free"]])
        assert code == 1 and out == "" and err.startswith("error:") and key in err

    def test_blowup_too_deep_to_search_is_domain_error(self, capsys, tmp_path):
        cube = tmp_path / "cube11.txt"
        cube.write_text(family_to_text(SetFamily(11, tuple(range(1 << 11)))))
        code, out, err = run(
            capsys,
            ["embed", "first-copy", str(FIXDIR / "chain2.json"), str(cube),
             "--root", "0", "--t", "1100"],
        )
        assert code == 1 and out == "" and "recursion limit" in err

    def test_bool_cover_entry_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2, "covers": [[true, 0]]}')
        code, out, err = run(capsys, ["poset", "validate", str(bad)])
        assert code == 1 and out == "" and err.startswith("error:")

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["poset", "validate", "x.json", "--nope"])
        assert code == 2

    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "poset" in out and "census" in out

    def test_pretty_json_parses_to_same_payload(self, capsys):
        plain = run(capsys, ["poset", "validate", str(FIXDIR / "v.json")])
        pretty = run(capsys, ["poset", "validate", str(FIXDIR / "v.json"), "--pretty"])
        assert plain[1] != pretty[1]
        assert "\n  " in pretty[1]
        assert json.loads(plain[1]) == json.loads(pretty[1])

    def test_out_flag_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "payload.json"
        code, out, err = run(
            capsys,
            ["poset", "validate", str(FIXDIR / "v.json"), "--out", str(target)],
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text()) == {
            "graded": True, "height": 2, "m": 3, "tree": True,
        }

    def test_out_flag_writes_experiment_csv(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys,
            ["census", "experiment", "--poset", str(FIXDIR / "chain2.json"),
             "--n", "2", "--seed", "7", "--samples", "3", "--out", str(target)],
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,count,la,")


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("posetfree")
        assert exe is not None, "console script not on PATH"
        proc = subprocess.run(
            [exe, "poset", "validate", str(FIXDIR / "v.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {
            "graded": True, "height": 2, "m": 3, "tree": True,
        }
