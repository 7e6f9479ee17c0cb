"""Tests for the command-line interface and encoding serialization."""

import json

import pytest

from repro.cli import main, parse_model
from repro.encodings import bravyi_kitaev, jordan_wigner
from repro.encodings.serialization import (
    encoding_from_dict,
    encoding_to_dict,
    load_encoding,
    save_encoding,
)


class TestParseModel:
    def test_h2(self):
        assert parse_model("h2").num_modes == 4

    def test_hubbard_chain(self):
        assert parse_model("hubbard:3").num_modes == 6

    def test_hubbard_lattice(self):
        assert parse_model("hubbard:2x2").num_modes == 8

    def test_syk(self):
        assert parse_model("syk:4").num_modes == 4

    def test_electronic(self):
        assert parse_model("electronic:6").num_modes == 6

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError):
            parse_model("hubbard")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            parse_model("ising:4")


class TestSerialization:
    def test_round_trip_dict(self):
        encoding = bravyi_kitaev(3)
        rebuilt = encoding_from_dict(encoding_to_dict(encoding))
        assert [s.label() for s in rebuilt.strings] == [
            s.label() for s in encoding.strings
        ]
        assert rebuilt.name == encoding.name

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "enc.json"
        save_encoding(jordan_wigner(2), path)
        loaded = load_encoding(path)
        assert [s.label() for s in loaded.strings] == ["IX", "IY", "XZ", "YZ"]

    def test_version_checked(self):
        data = encoding_to_dict(jordan_wigner(2))
        data["format_version"] = 99
        with pytest.raises(ValueError):
            encoding_from_dict(data)

    def test_mode_consistency_checked(self):
        data = encoding_to_dict(jordan_wigner(2))
        data["num_modes"] = 5
        with pytest.raises(ValueError):
            encoding_from_dict(data)


class TestCliCommands:
    def test_solve_independent(self, capsys, tmp_path):
        output = tmp_path / "enc.json"
        code = main([
            "solve", "--modes", "2", "--budget-s", "30",
            "--output", str(output),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "weight:          6" in captured
        assert output.exists()
        saved = json.loads(output.read_text())
        assert saved["num_modes"] == 2

    def test_solve_model_annealing(self, capsys):
        code = main([
            "solve", "--model", "hubbard:2", "--method", "sat-anl",
            "--budget-s", "15", "--no-alg",
        ])
        assert code == 0
        assert "sat+annealing" in capsys.readouterr().out

    def test_solve_modes_conflict(self, capsys):
        code = main(["solve", "--model", "h2", "--modes", "3"])
        assert code == 2

    def test_solve_requires_target(self):
        assert main(["solve"]) == 2

    def test_baselines_table(self, capsys):
        code = main(["baselines", "--modes", "4"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("jw", "bk", "parity", "tt"):
            assert name in out

    def test_baselines_with_model(self, capsys):
        code = main(["baselines", "--model", "h2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "H weight" in out

    def test_baselines_requires_target(self):
        assert main(["baselines"]) == 2

    def test_compile_with_baseline(self, capsys):
        code = main(["compile", "--model", "h2", "--encoding", "bk"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gates:" in out

    def test_compile_with_saved_encoding(self, capsys, tmp_path):
        path = tmp_path / "enc.json"
        save_encoding(jordan_wigner(4), path)
        code = main(["compile", "--model", "h2", "--encoding", str(path)])
        assert code == 0

    def test_compile_with_random_encoding(self, capsys):
        code = main(["compile", "--model", "h2", "--encoding", "random:7"])
        assert code == 0

    def test_verify_valid_encoding(self, capsys, tmp_path):
        path = tmp_path / "enc.json"
        save_encoding(bravyi_kitaev(3), path)
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "anticommutativity:       True" in out

    def test_verify_invalid_encoding(self, capsys, tmp_path):
        from repro.encodings import MajoranaEncoding
        from repro.paulis import PauliString

        bad = MajoranaEncoding(
            [PauliString.from_label("XX"), PauliString.from_label("YY")],
            validate=False,
        )
        path = tmp_path / "bad.json"
        save_encoding(bad, path)
        code = main(["verify", str(path)])
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_unknown_model_error_path(self, capsys):
        code = main(["compile", "--model", "nope:3", "--encoding", "bk"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_error_path(self, capsys):
        code = main(["verify", "/nonexistent/enc.json"])
        assert code == 2


class TestCacheCli:
    def _solve_cached(self, tmp_path):
        return main([
            "solve", "--modes", "2", "--budget-s", "30",
            "--cache", str(tmp_path / "cache"),
        ])

    def test_solve_cache_miss_then_hit(self, capsys, tmp_path):
        assert self._solve_cached(tmp_path) == 0
        assert "cache:           miss" in capsys.readouterr().out
        assert self._solve_cached(tmp_path) == 0
        out = capsys.readouterr().out
        assert "cache:           hit" in out
        assert "weight:          6" in out

    def test_cache_ls_empty(self, capsys, tmp_path):
        code = main(["cache", "ls", "--dir", str(tmp_path / "none")])
        assert code == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_ls_and_show(self, capsys, tmp_path):
        self._solve_cached(tmp_path)
        capsys.readouterr()
        assert main(["cache", "ls", "--dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "full-sat/independent" in out
        key = out.splitlines()[2].split("|")[0].strip()
        assert main(["cache", "show", key, "--dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "proved optimal:  True" in out
        assert "majorana strings:" in out

    def test_cache_show_json(self, capsys, tmp_path):
        self._solve_cached(tmp_path)
        capsys.readouterr()
        code = main(["cache", "show", "", "--json",
                     "--dir", str(tmp_path / "cache")])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entry_format_version"] == 1
        assert data["result"]["weight"] == 6

    def test_cache_show_json_corrupted_entry_fails(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        self._solve_cached(tmp_path)
        entry = next((cache_dir).glob("*/*.json"))
        entry.write_text("{broken")
        capsys.readouterr()
        code = main(["cache", "show", entry.stem[:8], "--json",
                     "--dir", str(cache_dir)])
        assert code == 1
        assert "corrupted" in capsys.readouterr().out

    def test_cache_show_json_deep_corruption_fails(self, capsys, tmp_path):
        """--json must not dump an entry whose inner result payload is
        undecodable, even though the wrapper JSON parses."""
        cache_dir = tmp_path / "cache"
        self._solve_cached(tmp_path)
        entry = next(cache_dir.glob("*/*.json"))
        data = json.loads(entry.read_text())
        data["result"]["result_format_version"] = 999
        entry.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["cache", "show", entry.stem[:8], "--json",
                     "--dir", str(cache_dir)])
        assert code == 1
        assert "could not be decoded" in capsys.readouterr().err

    def test_cache_show_missing_prefix(self, capsys, tmp_path):
        self._solve_cached(tmp_path)
        capsys.readouterr()
        code = main(["cache", "show", "zzzz", "--dir", str(tmp_path / "cache")])
        assert code == 2
        assert "no cache entry" in capsys.readouterr().err

    def test_cache_gc_reports(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        self._solve_cached(tmp_path)
        (cache_dir / "zz").mkdir(parents=True)
        (cache_dir / "zz" / ("z" * 64 + ".json")).write_text("junk")
        capsys.readouterr()
        code = main(["cache", "gc", "--dir", str(cache_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 1 entries" in out
        assert "corrupted" in out


class TestProofCli:
    def test_solve_proof_writes_default_artifact(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["solve", "--modes", "2", "--budget-s", "30", "--proof"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proof:           sha256 " in out
        artifacts = list(tmp_path.glob("proof-*.json"))
        assert len(artifacts) == 1
        assert main(["verify-proof", str(artifacts[0])]) == 0
        assert "verdict:         OK" in capsys.readouterr().out

    def test_proof_out_implies_proof(self, capsys, tmp_path):
        artifact = tmp_path / "opt.json"
        code = main(["solve", "--modes", "2", "--budget-s", "30",
                     "--proof-out", str(artifact)])
        assert code == 0
        assert artifact.exists()
        assert f"saved proof to {artifact}" in capsys.readouterr().out
        assert main(["verify-proof", str(artifact)]) == 0

    def test_solve_proof_with_cache_stores_and_resolves_sha(self, capsys,
                                                            tmp_path):
        cache_dir = tmp_path / "cache"
        code = main(["solve", "--modes", "2", "--budget-s", "30", "--proof",
                     "--cache", str(cache_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "proof artifact:  " in out
        sha_prefix = out.split("proof:           sha256 ")[1][:12]
        code = main(["verify-proof", sha_prefix, "--dir", str(cache_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:         OK" in out
        assert "assumptions:" in out

    def test_cached_hit_can_still_export_the_artifact(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["solve", "--modes", "2", "--budget-s", "30", "--proof",
                     "--cache", str(cache_dir)]) == 0
        capsys.readouterr()
        artifact = tmp_path / "exported.json"
        code = main(["solve", "--modes", "2", "--budget-s", "30",
                     "--cache", str(cache_dir), "--proof-out", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache:           hit" in out
        assert artifact.exists()
        assert main(["verify-proof", str(artifact)]) == 0

    def test_corrupted_artifact_is_rejected(self, capsys, tmp_path):
        artifact = tmp_path / "opt.json"
        assert main(["solve", "--modes", "2", "--budget-s", "30",
                     "--proof-out", str(artifact)]) == 0
        capsys.readouterr()
        data = json.loads(artifact.read_text())
        # Drop the refuting empty-clause line — the one mutation every
        # DRAT checker must catch.
        lines = data["proof"].splitlines()
        assert lines[-1].strip() == "0"
        data["proof"] = "\n".join(lines[:-1]) + "\n"
        artifact.write_text(json.dumps(data, sort_keys=True) + "\n")
        code = main(["verify-proof", str(artifact)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        # A structurally broken artifact must fail loudly too.
        artifact.write_text("{not json")
        assert main(["verify-proof", str(artifact)]) == 2

    def test_corrupted_cache_artifact_is_rejected(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["solve", "--modes", "2", "--budget-s", "30", "--proof",
                     "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        sha_prefix = out.split("proof:           sha256 ")[1][:12]
        proof_file = next((cache_dir / "proofs").glob("*.json"))
        data = json.loads(proof_file.read_text())
        data["meta"]["bound"] = 99  # any content change breaks the address
        proof_file.write_text(json.dumps(data, sort_keys=True) + "\n")
        code = main(["verify-proof", sha_prefix, "--dir", str(cache_dir)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_verify_proof_unknown_reference(self, capsys, tmp_path):
        code = main(["verify-proof", "feedbeef", "--dir", str(tmp_path)])
        assert code == 2
        assert "no file or cached proof" in capsys.readouterr().err

    def test_proof_without_unsat_reports_no_capture(self, capsys):
        # A conflict budget of 1 cannot finish the final UNSAT rung.
        code = main(["solve", "--modes", "2", "--proof",
                     "--max-conflicts", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proof:           not captured" in out


class TestBatchCli:
    def test_batch_jobs_file_dedups(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"modes": 2, "method": "independent"},
            {"modes": 2, "method": "independent", "label": "again"},
        ]))
        code = main([
            "batch", str(jobs), "--budget-s", "30",
            "--cache", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "deduplicated" in out
        assert "2 jobs" in out
        assert "1 stores" in out

    def test_batch_cache_line_same_at_any_jobs(self, capsys, tmp_path):
        """Workers relay their cache counts home, so a fresh-cache batch
        reports the same ``cache:`` line on either engine."""
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"modes": 2, "method": "independent"},
            {"modes": 2, "method": "independent", "label": "again"},
            {"modes": 3, "method": "independent"},
        ]))
        lines = []
        for n in ("1", "2"):
            cache_dir = tmp_path / f"cache-{n}"
            code = main(["batch", str(jobs), "--budget-s", "30", "--quiet",
                         "--jobs", n, "--cache", str(cache_dir)])
            assert code == 0
            [line] = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("cache:")]
            lines.append(line.replace(str(cache_dir), "DIR"))
        assert lines[0] == lines[1] == (
            "cache: 0 hits, 4 misses, 0 warm starts, 2 stores (DIR)")

    def test_batch_requires_jobs(self, capsys):
        code = main(["batch"])
        assert code == 2
        assert "no jobs" in capsys.readouterr().err

    def test_batch_rejects_bad_method(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"modes": 2, "method": "psychic"}]))
        assert main(["batch", str(jobs)]) == 2

    def test_batch_rejects_model_for_independent(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{"model": "h2", "method": "independent"}]))
        assert main(["batch", str(jobs)]) == 2

    def test_batch_rejects_non_list_file(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({"model": "h2"}))
        assert main(["batch", str(jobs)]) == 2

    def test_batch_directory_as_jobs_file(self, capsys, tmp_path):
        code = main(["batch", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestRetiredFlags:
    # The process portfolio is gone: a script still passing its flags
    # fails at parse time instead of silently solving serially.
    @pytest.mark.parametrize("argv", [
        ["solve", "--modes", "2", "--portfolio", "2"],
        ["solve", "--modes", "2", "--jobs", "2"],
        ["batch", "-", "--portfolio", "2"],
        ["serve", "--portfolio", "2"],
    ], ids=["solve-portfolio", "solve-jobs", "batch-portfolio",
            "serve-portfolio"])
    def test_portfolio_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_strategy_flag_exits_2(self, capsys):
        # The descent has one loop; choosing it is no longer an option.
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--modes", "2", "--strategy", "linear"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        import repro

        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestDevicesCli:
    def test_devices_ls(self, capsys):
        code = main(["devices", "ls"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ibm-falcon-27" in out
        assert "ionq-aria-25" in out
        assert "parametric specs" in out

    def test_devices_show_preset(self, capsys):
        code = main(["devices", "show", "ibmq-manila"])
        out = capsys.readouterr().out
        assert code == 0
        assert "qubits:    5" in out
        assert "couplers:" in out
        assert "objective weights" in out

    def test_devices_show_parametric(self, capsys):
        code = main(["devices", "show", "grid-3x3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "qubits:    9" in out
        assert "diameter:  4" in out

    def test_devices_show_unknown(self, capsys):
        code = main(["devices", "show", "vaporware-9000"])
        assert code == 2
        assert "unknown device" in capsys.readouterr().err


class TestDeviceFlows:
    def test_solve_with_device_reports_routed_cost(self, capsys):
        code = main([
            "solve", "--modes", "2", "--device", "grid-2x2", "--budget-s", "30",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "device:          grid-2x2 (4 qubits)" in out
        assert "routed 2q gates:" in out
        assert "routed depth:" in out

    def test_solve_with_too_small_device(self, capsys):
        code = main(["solve", "--modes", "4", "--device", "linear-3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_solve_device_cache_round_trip(self, capsys, tmp_path):
        argv = [
            "solve", "--modes", "2", "--device", "linear-2", "--budget-s", "30",
            "--cache", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "cache:           miss" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache:           hit" in out
        assert "routed 2q gates:" in out

    def test_compile_with_device(self, capsys):
        code = main([
            "compile", "--model", "h2", "--encoding", "bk",
            "--device", "ibmq-manila",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "device:    ibmq-manila (5 qubits)" in out
        assert "routed:" in out

    def test_batch_with_device_adds_columns(self, capsys, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"modes": 2, "method": "independent"},
            {"modes": 2, "method": "independent", "device": "grid-2x2"},
        ]))
        code = main(["batch", str(jobs), "--budget-s", "30",
                     "--device", "linear-2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "routed 2q" in out
        assert "grid-2x2" in out
        assert "linear-2" in out
