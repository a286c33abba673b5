import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rps_forge
from rps_forge.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from rps_forge.gamefile import load_game


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def run_json(capsys, *argv):
    """``main`` with JSON output, parsed strictly: NaN and Infinity fail."""
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    return code, (json.loads(out, parse_constant=_reject_constant) if out.strip() else None), err


class TestBuild:
    def test_build_writes_game_file(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        code, env, _ = run_json(
            capsys, "build", "--family", "imbalanced3", "--m", "3", "--out", str(path)
        )
        assert code == EXIT_OK
        assert env["payload"]["multisets"] == 10
        rule = load_game(path)
        assert rule.labels == ("R", "P", "S")

    def test_build_iterated_object_count(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        code, env, _ = run_json(
            capsys, "build", "--family", "imbalanced", "--m", "4", "--k", "2",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert len(env["payload"]["objects"]) == 5

    def test_build_maximal_names_r_everywhere(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        code, _, _ = run_json(
            capsys, "build", "--family", "maximal3", "--m", "5", "--out", str(path)
        )
        assert code == EXIT_OK
        for line in path.read_text().splitlines():
            if line.startswith("counts="):
                counts = [int(x) for x in line.split()[0][len("counts="):].split(",")]
                winner = line.split("winner=")[1]
                if 0 < counts[0] < 5:
                    assert winner == "R'"

    def test_build_blowup_family_matches_direct(self, capsys, tmp_path):
        a = tmp_path / "direct.rps"
        b = tmp_path / "composed.rps"
        run_json(capsys, "build", "--family", "imbalanced", "--m", "3", "--k", "2", "--out", str(a))
        run_json(capsys, "build", "--family", "blowup", "--m", "3", "--k", "2", "--out", str(b))
        body = lambda p: [l for l in p.read_text().splitlines() if l.startswith("counts=")]
        assert body(a) == body(b)

    def test_build_blowup_rejects_nonpositive_depth(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        code, out, err = run_cli(
            capsys, "build", "--family", "blowup", "--m", "3", "--k", "0", "--out", str(path)
        )
        assert code == EXIT_USAGE
        assert "depth must be at least 1, got 0" in err and not out
        assert not path.exists()

    def test_build_odd_one_out(self, capsys, tmp_path):
        path = tmp_path / "o.rps"
        code, env, _ = run_json(
            capsys, "build", "--family", "odd-one-out", "--m", "4", "--out", str(path)
        )
        assert code == EXIT_OK
        assert env["payload"]["objects"] == ["a", "b"]

    def test_build_bad_directory_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "build", "--family", "imbalanced3", "--m", "3",
            "--out", str(tmp_path / "nope" / "g.rps"),
        )
        assert code == EXIT_IO


class TestNash:
    def test_symmetric_published_row(self, capsys):
        code, env, _ = run_json(
            capsys, "nash", "--family", "imbalanced3", "--m", "10", "--mode", "symmetric"
        )
        assert code == EXIT_OK
        row = env["payload"]["records"][0]
        assert abs(float(row["r"]) - 0.212) <= 1e-3
        assert abs(float(row["p"]) - 0.760) <= 1e-3
        assert abs(float(row["s"]) - 0.027) <= 1e-3

    def test_symmetric_two_player_thirds(self, capsys):
        code, env, _ = run_json(
            capsys, "nash", "--family", "imbalanced3", "--m", "2"
        )
        assert code == EXIT_OK
        row = env["payload"]["records"][0]
        assert abs(float(row["r"]) - 1 / 3) <= 1e-6

    def test_symmetric_rejects_other_families(self, capsys):
        code, _, err = run_cli(
            capsys, "nash", "--family", "maximal3", "--m", "3", "--mode", "symmetric"
        )
        assert code == EXIT_USAGE
        assert "imbalanced3" in err

    def test_symmetric_accepts_tagged_game_file(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        run_json(capsys, "build", "--family", "imbalanced3", "--m", "5", "--out", str(path))
        code, env, _ = run_json(capsys, "nash", "--game", str(path), "--mode", "symmetric")
        assert code == EXIT_OK
        assert abs(float(env["payload"]["records"][0]["p"]) - 0.622) <= 1e-3

    def test_solver_failure_exits_with_diagnostics(self, capsys):
        # an unreachable residual tolerance forces a solver failure
        code, _, err = run_cli(
            capsys, "nash", "--family", "imbalanced3", "--m", "20", "--tol", "1e-18"
        )
        assert code == EXIT_CHECK_FAILED
        assert "residual" in err

    def test_search_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "nash", "--family", "imbalanced3", "--m", "3", "--mode", "search"
        )
        assert code == EXIT_USAGE
        assert "seed" in err

    def test_search_rejects_negative_starts(self, capsys):
        # The search enumerates its asymmetric candidates; it has no starts,
        # so any --starts is an unknown option.
        with pytest.raises(SystemExit) as exc:  # argparse exits on an unknown option
            main(["nash", "--family", "imbalanced3", "--m", "3", "--mode", "search",
                  "--seed", "7", "--starts", "-5"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert "--starts" in err and not out

    def test_search_rejects_nonpositive_tolerance(self, capsys):
        code, _, err = run_cli(
            capsys, "nash", "--family", "imbalanced3", "--m", "3", "--mode", "search",
            "--seed", "7", "--tol", "0",
        )
        assert code == EXIT_USAGE
        assert "eps" in err

    def test_symmetric_rejects_nan_tolerance(self, capsys):
        code, out, err = run_cli(
            capsys, "nash", "--family", "imbalanced3", "--m", "10", "--tol", "nan"
        )
        assert code == EXIT_USAGE
        assert "tolerance must be positive" in err and not out

    @pytest.mark.parametrize("mode, name", [("symmetric", "tolerance"), ("search", "eps")])
    def test_infinite_tolerance_rejected(self, capsys, mode, name):
        # An infinite tolerance skipped the residual gate and let search
        # candidates that fail the gap check pass as verified.
        code, out, err = run_cli(
            capsys, "nash", "--family", "imbalanced3", "--m", "3", "--mode", mode,
            "--seed", "1", "--tol", "inf",
        )
        assert code == EXIT_USAGE
        assert f"{name} must be positive and finite" in err and not out

    def test_tolerance_follows_the_mode(self, capsys):
        # Search mode verifies at its own 1e-9 unless --tol says otherwise.
        # All 19 results here are exact profiles with gap 0, so they verify
        # at either tolerance.
        argv = ("nash", "--family", "odd-one-out", "--m", "4", "--mode", "search", "--seed", "1")
        code, search, _ = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert search["config"]["tol"] == 1e-9
        assert search["payload"]["equilibria_found"] == 19
        _, strict, _ = run_json(capsys, *argv, "--tol", "1e-12")
        assert strict["config"]["tol"] == 1e-12
        assert strict["payload"]["equilibria_found"] == 19
        _, symmetric, _ = run_json(capsys, "nash", "--family", "imbalanced3", "--m", "3")
        assert symmetric["config"]["tol"] == 1e-12

    def test_search_deterministic_given_seed(self, capsys):
        argv = (
            "nash", "--family", "imbalanced3", "--m", "3", "--mode", "search",
            "--seed", "7",
        )
        code1, env1, _ = run_json(capsys, *argv)
        code2, env2, _ = run_json(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert env1["payload"] == env2["payload"]
        assert env1["payload"]["equilibria_found"] >= 1

    def test_search_on_loaded_game_file(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        run_json(capsys, "build", "--family", "imbalanced3", "--m", "3", "--out", str(path))
        code, env, _ = run_json(
            capsys, "nash", "--game", str(path), "--mode", "search", "--seed", "7"
        )
        assert code == EXIT_OK
        assert env["payload"]["equilibria_found"] >= 1


class TestImbalance:
    def test_single_game_statistics(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        run_json(capsys, "build", "--family", "imbalanced3", "--m", "3", "--out", str(path))
        code, env, _ = run_json(capsys, "imbalance", str(path))
        assert code == EXIT_OK
        assert env["payload"]["ui_variance"] == "8/81"
        assert env["payload"]["payoffs"] == ["4/9", "-2/9", "-2/9"]

    def test_same_game_twice_equal(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        run_json(capsys, "build", "--family", "imbalanced3", "--m", "3", "--out", str(path))
        code, env, _ = run_json(capsys, "imbalance", str(path), str(path))
        assert code == EXIT_OK
        assert env["payload"]["relation"] == "equal"

    def test_family_pair_majorizes(self, capsys, tmp_path):
        a = tmp_path / "max.rps"
        b = tmp_path / "imb.rps"
        run_json(capsys, "build", "--family", "maximal3", "--m", "3", "--out", str(a))
        run_json(capsys, "build", "--family", "imbalanced3", "--m", "3", "--out", str(b))
        code, env, _ = run_json(capsys, "imbalance", str(a), str(b))
        assert code == EXIT_OK
        assert env["payload"]["relation"] == "majorizes"

    def test_seed_beyond_search_scale_says_why(self, capsys, tmp_path):
        path = tmp_path / "g.rps"
        run_json(capsys, "build", "--family", "maximal3", "--m", "5", "--out", str(path))
        code, env, _ = run_json(capsys, "imbalance", str(path), "--seed", "3")
        assert code == EXIT_OK
        assert env["payload"]["equilibrium_basis"] == (
            "not computed (search is desk-scale only: m <= 4, n <= 5)"
        )

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.rps"
        bad.write_text("rps m=2 objects=a,b\ncounts=1,1 winner=zzz\n")
        code, _, err = run_cli(capsys, "imbalance", str(bad))
        assert code == EXIT_USAGE
        assert "line 2" in err

    def test_three_games_rejected_before_loading(self, capsys, tmp_path):
        # none of the files exists: a load would exit EXIT_IO
        paths = [str(tmp_path / f"g{i}.rps") for i in range(3)]
        code, out, err = run_cli(capsys, "imbalance", *paths)
        assert code == EXIT_USAGE and not out
        assert err == "error: imbalance takes one game file, or two to compare; got 3\n"

    def test_file_that_is_not_utf8_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "binary.rps"
        path.write_bytes(b"\xd0\xcf\x11\xe0")
        code, out, err = run_cli(capsys, "imbalance", str(path))
        assert code == EXIT_IO and not out
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec")


class TestVerify:
    def test_identities_pass(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "identities", "--kmax", "10", "--tmax", "10"
        )
        assert code == EXIT_OK
        assert env["payload"]["passed"] is True
        assert env["payload"]["failures"] == 0

    def test_corners_pass(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "corners", "--kmax", "10", "--tmax", "10"
        )
        assert code == EXIT_OK and env["payload"]["failures"] == 0

    def test_corner_disagreement_is_a_failed_check(self, capsys, monkeypatch):
        from rps_forge import cli
        from rps_forge.formulas import ScenarioError

        real = cli.corner_value

        def disagreeing(k, t, l, corner):
            if corner == 1:
                raise ScenarioError("closed form disagrees with direct sum")
            return real(k, t, l, corner)

        monkeypatch.setattr(cli, "corner_value", disagreeing)
        code, env, _ = run_json(capsys, "verify", "corners", "--kmax", "2", "--tmax", "0")
        assert code == EXIT_CHECK_FAILED
        assert env["payload"]["failures"] == 1
        [record] = env["payload"]["records"]
        assert record["s"] == 1 and "disagrees" in record["error"]

    def test_formulas_need_seed(self, capsys):
        code, _, err = run_cli(capsys, "verify", "formulas")
        assert code == EXIT_USAGE and "seed" in err

    def test_formulas_pass(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "formulas", "--seed", "3", "--count", "20",
            "--kmax", "6", "--tmax", "6",
        )
        assert code == EXIT_OK and env["payload"]["failures"] == 0

    def test_formulas_beyond_k_twenty(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "formulas", "--seed", "1", "--count", "3",
            "--kmax", "30", "--tmax", "30",
        )
        assert code == EXIT_OK
        assert env["payload"]["checked"] == 24
        assert env["payload"]["failures"] == 0

    def test_formulas_reject_nonpositive_count(self, capsys):
        code, _, err = run_cli(capsys, "verify", "formulas", "--seed", "1", "--count", "-3")
        assert code == EXIT_USAGE and "--count" in err

    def test_formulas_reject_nonpositive_kmax(self, capsys):
        code, _, err = run_cli(capsys, "verify", "formulas", "--seed", "1", "--kmax", "0")
        assert code == EXIT_USAGE and "--kmax" in err

    def test_formulas_reject_negative_tmax(self, capsys):
        code, _, err = run_cli(capsys, "verify", "formulas", "--seed", "1", "--tmax", "-1")
        assert code == EXIT_USAGE and "--tmax" in err

    def test_identities_reject_nonpositive_kmax(self, capsys):
        code, _, err = run_cli(capsys, "verify", "identities", "--kmax", "0")
        assert code == EXIT_USAGE and "--kmax" in err

    def test_identities_reject_negative_tmax(self, capsys):
        code, _, err = run_cli(capsys, "verify", "identities", "--tmax", "-1")
        assert code == EXIT_USAGE and "--tmax" in err

    def test_corners_reject_kmax_below_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "corners", "--kmax", "1")
        assert code == EXIT_USAGE and "--kmax" in err

    def test_corners_reject_negative_tmax(self, capsys):
        code, _, err = run_cli(capsys, "verify", "corners", "--tmax", "-1")
        assert code == EXIT_USAGE and "--tmax" in err

    def test_infeasibility_single_pair(self, capsys):
        code, env, _ = run_json(capsys, "verify", "infeasibility", "--k", "2", "--t", "1")
        assert code == EXIT_OK
        assert env["payload"]["verdict"] == "proved_empty"
        assert env["payload"]["delta"] == "0.000001"

    def test_undecided_certificate_exits_nonzero(self, capsys):
        # this pair needs subdivision depth 3; depth 2 leaves a
        # surviving interval, so the verdict is undecided and the exit is 1
        code, env, _ = run_json(
            capsys, "verify", "infeasibility", "--k", "5", "--t", "5", "--depth", "2"
        )
        assert code == EXIT_CHECK_FAILED
        assert env["payload"]["verdict"] == "undecided"
        assert env["payload"]["passed"] is False

    def test_small_sweep(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "sweep", "--kmax", "2", "--tmax", "2"
        )
        assert code == EXIT_OK
        assert env["payload"]["all_proved_empty"] is True
        assert len(env["payload"]["records"]) == 6

    def test_exhausted_sweep_budget_is_flagged_and_nonzero(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "sweep", "--kmax", "3", "--tmax", "3", "--budget", "0"
        )
        assert code == EXIT_CHECK_FAILED
        assert env["payload"]["incomplete"] is True
        assert env["payload"]["skipped"]

    def test_sweep_honours_depth(self, capsys):
        # (5, 5) alone is undecided at depth 2, so the sweep must be too
        code, env, _ = run_json(
            capsys, "verify", "sweep", "--kmax", "12", "--tmax", "12", "--depth", "2"
        )
        assert code == EXIT_CHECK_FAILED
        assert env["payload"]["all_proved_empty"] is False
        assert max(r["depth"] for r in env["payload"]["records"]) <= 2

    def test_sweep_rejects_nonpositive_jobs(self, capsys):
        code, _, err = run_json(
            capsys, "verify", "sweep", "--kmax", "1", "--tmax", "0", "--jobs", "0"
        )
        assert code == EXIT_USAGE
        assert "jobs" in err

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    def test_sweep_rejects_bad_budget(self, capsys, budget):
        # A NaN budget never ran out, and NaN or inf was echoed as a
        # constant that is not JSON.
        code, out, err = run_cli(
            capsys, "verify", "sweep", "--kmax", "2", "--tmax", "1", "--budget", budget
        )
        assert code == EXIT_USAGE
        assert "budget_seconds must be nonnegative and finite" in err and not out

    def test_sweep_stream_lines_are_the_records(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        code, env, _ = run_json(
            capsys, "verify", "sweep", "--kmax", "2", "--tmax", "2",
            "--stream", str(path),
        )
        assert code == EXIT_OK
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines.sort(key=lambda r: (r["k"], r["t"]))
        assert lines == env["payload"]["records"]
        assert env["config"]["stream"] == str(path)

    def test_sweep_stream_delta_mismatch_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        argv = ("verify", "sweep", "--kmax", "1", "--tmax", "0", "--stream", str(path))
        assert run_json(capsys, *argv)[0] == EXIT_OK
        code, _, err = run_json(capsys, *argv, "--delta", "1e-3")
        assert code == EXIT_USAGE
        assert f"{path}:1" in err and "delta" in err

    def test_sweep_stream_malformed_line_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"k": 1, "t": 0, "verdict": "proved_empty"\n')
        code, _, err = run_json(
            capsys, "verify", "sweep", "--kmax", "1", "--tmax", "0", "--stream", str(path)
        )
        assert code == EXIT_USAGE
        assert f"{path}:1" in err and "malformed" in err

    def test_conjecture2_twenty_players(self, capsys):
        code, env, _ = run_json(capsys, "verify", "conjecture2", "--m", "20", "--k", "1")
        assert code == EXIT_OK
        row = env["payload"]["records"][0]
        assert row["ratio"] >= 19

    def test_conjecture2_desk_scale_depth_two(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "conjecture2", "--m", "3", "--k", "2", "--seed", "5"
        )
        assert code == EXIT_OK
        assert env["payload"]["records"]


class TestJobsDefault:
    def test_env_var_sets_default(self, monkeypatch):
        from rps_forge.cli import make_parser

        monkeypatch.setenv("RPS_FORGE_JOBS", "3")
        args = make_parser().parse_args(["verify", "sweep", "--kmax", "1", "--tmax", "0"])
        assert args.jobs == 3
        monkeypatch.setenv("RPS_FORGE_JOBS", "junk")
        args = make_parser().parse_args(["verify", "sweep"])
        assert args.jobs == 1


class TestOutputContracts:
    def test_payload_determinism(self, capsys, tmp_path):
        game = tmp_path / "g.rps"
        other = tmp_path / "h.rps"
        run_json(capsys, "build", "--family", "imbalanced3", "--m", "3", "--out", str(game))
        run_json(capsys, "build", "--family", "maximal3", "--m", "3", "--out", str(other))
        for argv in (
            ("verify", "identities", "--kmax", "6", "--tmax", "6"),
            ("nash", "--family", "imbalanced3", "--m", "3", "--mode", "search", "--seed", "7"),
            ("imbalance", str(game), "--seed", "3"),
            ("imbalance", str(game), str(other), "--seed", "3"),
            ("verify", "conjecture2", "--m", "3", "--k", "2", "--seed", "1"),
        ):
            _, env1, _ = run_json(capsys, *argv)
            _, env2, _ = run_json(capsys, *argv)
            assert json.dumps(env1["payload"], sort_keys=True) == json.dumps(
                env2["payload"], sort_keys=True
            ), argv
            assert env1["config"] == env2["config"], argv

    def test_envelope_fields(self, capsys):
        _, env, _ = run_json(capsys, "verify", "identities", "--kmax", "3", "--tmax", "3")
        assert set(env) == {"command", "version", "config", "timestamp", "payload"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "csv", "verify", "sweep", "--kmax", "1", "--tmax", "1"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["k", "t", "verdict"]
        assert len(lines) == 3

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "table", "nash", "--family", "imbalanced3", "--m", "3"
        )
        assert code == EXIT_OK
        assert "# nash" in out

    def test_format_flag_accepted_after_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "nash", "--family", "imbalanced3", "--m", "3", "--format", "table"
        )
        assert code == EXIT_OK
        assert "# nash" in out
        code, out, _ = run_cli(
            capsys, "verify", "identities", "--kmax", "3", "--tmax", "3",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("checked")

    def test_out_flag_accepted_after_subcommand(self, capsys, tmp_path):
        target = tmp_path / "r.json"
        code, out, _ = run_cli(
            capsys, "verify", "corners", "--kmax", "4", "--tmax", "2",
            "--out", str(target), "--format", "json",
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["payload"]["passed"] is True

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "--format", "json", "--out", str(target),
            "verify", "identities", "--kmax", "3", "--tmax", "3",
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["payload"]["passed"] is True

    def test_game_file_round_trip_via_cli(self, capsys, tmp_path):
        a = tmp_path / "a.rps"
        run_json(capsys, "build", "--family", "imbalanced", "--m", "3", "--k", "2", "--out", str(a))
        first = a.read_text()
        from rps_forge.gamefile import dump_game, load_game

        assert dump_game(load_game(a)) == first


def test_module_entry_point_prints_help():
    src = str(Path(rps_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rps_forge.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--sweep-kmax", "0"), ("--sweep-tmax", "-1")])
def test_reproduce_script_rejects_bad_ranges_before_any_work(flag, value):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(rps_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_results.py"), flag, value],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert flag in proc.stderr
