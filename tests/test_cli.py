"""CLI driver tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (["list"], ["run-uu", "--factor", "4"],
                     ["run-unroll"], ["run-unmerge"],
                     ["run-heuristic", "--verbose"],
                     ["table1"], ["fig6"], ["fig7"], ["fig8"], ["indepth"],
                     ["ptx", "--app", "complex"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_ptx_requires_app(self):
        with pytest.raises(SystemExit):
            main(["ptx"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list", "--app", "complex"]) == 0
        out = capsys.readouterr().out
        assert "complex" in out
        assert "complex_pow:0" in out

    def test_run_unmerge_single_app(self, capsys):
        assert main(["run-unmerge", "--app", "complex"]) == 0
        out = capsys.readouterr().out
        assert "complex_pow:0" in out
        assert "yes" in out          # Outputs matched the baseline.

    def test_heuristic_verbose(self, capsys):
        assert main(["run-heuristic", "--app", "complex",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        # The per-loop report is the rendered remark stream (repro.obs),
        # carrying the heuristic inputs on every applied loop.
        assert "[applied] uu" in out
        assert "u_prime=" in out

    def test_ptx_output(self, capsys):
        assert main(["ptx", "--app", "complex",
                     "--kernel", "complex_pow"]) == 0
        out = capsys.readouterr().out
        assert ".visible .entry complex_pow" in out
        assert "selp" in out         # The baseline predication shows up.

    def test_table1_single_app(self, capsys):
        assert main(["table1", "--app", "complex"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out and "complex" in out


class TestFuzzCommands:
    def test_fuzz_commands_parse(self):
        parser = build_parser()
        for argv in (["fuzz", "run", "--seed", "3", "--count", "7",
                      "-j", "2", "--no-bisect"],
                     ["fuzz", "run", "--save-corpus", "--out", "/tmp/x"],
                     ["fuzz", "reduce", "--seed", "5"],
                     ["fuzz", "corpus", "--lanes", "8"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_fuzz_reduce_requires_seed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "reduce"])

    def test_fuzz_run_clean_seeds(self, capsys):
        assert main(["fuzz", "run", "--seed", "0", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "no divergences found" in out
        assert "fuzzed 2 kernels" in out

    def test_fuzz_reduce_clean_seed(self, capsys):
        assert main(["fuzz", "reduce", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "nothing to reduce" in out

    def test_fuzz_corpus_replays_entries(self, capsys):
        assert main(["fuzz", "corpus"]) == 0
        out = capsys.readouterr().out
        assert "fptosi_saturation" in out
        assert "FAIL" not in out

    def test_fuzz_corpus_empty_dir(self, capsys, tmp_path):
        assert main(["fuzz", "corpus", "--dir", str(tmp_path)]) == 0
        assert "no corpus entries" in capsys.readouterr().out


class TestTuneCommands:
    def test_tune_commands_parse(self):
        parser = build_parser()
        for argv in (["tune", "bspline-vgh", "--budget", "4"],
                     ["tune", "--all", "--u-max", "4"],
                     ["tune", "show", "--app", "complex"],
                     ["run-tuned", "--app", "complex"],
                     ["ptx", "--app", "complex", "--config", "tuned"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_tune_without_target_rejected(self, capsys):
        assert main(["tune"]) == 2
        assert "name a benchmark" in capsys.readouterr().err

    def test_tune_then_show_and_run_tuned(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_TUNED_DIR", str(tmp_path / "tuned"))
        out_dir = tmp_path / "tuned"
        assert main(["tune", "bspline-vgh", "--budget", "2", "-j", "1",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "winner" in out and "vs heuristic" in out
        assert (out_dir / "bspline-vgh.json").is_file()

        assert main(["tune", "show", "--app", "bspline-vgh",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "bspline_vgh:0" in out and "verified" in out

        assert main(["run-tuned", "--app", "bspline-vgh", "-j", "1"]) == 0
        out = capsys.readouterr().out
        assert "tuned configs applied: 1/1" in out

    def test_tune_show_without_file_explains(self, capsys, tmp_path):
        assert main(["tune", "show", "--app", "complex",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "missing" in out and "repro tune" in out

    def test_run_tuned_falls_back_without_files(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_TUNED_DIR", str(tmp_path / "tuned"))
        with pytest.warns(RuntimeWarning, match="no usable tuned config"):
            assert main(["run-tuned", "--app", "complex", "-j", "1"]) == 0
        out = capsys.readouterr().out
        assert "fallback: missing" in out
        assert "tuned configs applied: 0/1" in out

    def test_cache_stats_separate_tuner_entries(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "aa.json").write_text("{}")
        (tmp_path / "cache" / "tune-bb.json").write_text("{}")
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 1" in out and "tuner: 1" in out

    def test_remarks_kind_filter(self, capsys):
        assert main(["remarks", "--app", "complex", "--engine", "jit",
                     "--kind", "jit", "-j", "1"]) == 0
        out = capsys.readouterr().out
        assert "matching 'jit'" in out
        # Only jit region remarks survive the filter: every line that
        # renders a remark names the jit pass.
        body = [line for line in out.splitlines()
                if line.startswith("[")]
        assert body, "jit engine emitted no region remarks"
        assert all(" jit " in line for line in body)


class TestHeuristicReport:
    def test_report_lists_decisions(self, capsys):
        assert main(["run-heuristic", "--app", "complex",
                     "--report"]) == 0
        out = capsys.readouterr().out
        # The report is the rendered remark stream: every selected loop
        # is an [applied] remark with its (p, s, u') or a [missed] one
        # carrying the skip reason.
        assert "[applied]" in out or "[missed ]" in out
        assert "u_prime=" in out or "p=" in out


class TestServeCommands:
    def test_serve_commands_parse(self):
        parser = build_parser()
        for argv in (["serve", "--port", "0", "--serve-workers", "4",
                      "--cache-cap", "1048576"],
                     ["submit", "--app", "complex", "--json"],
                     ["submit", "--ir", "k.ll", "--config", "uu",
                      "--loop-id", "k/L0", "--factor", "4",
                      "--directive", "unroll(4)@k/L0", "--no-wait"],
                     ["serve-status", "--json"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)
        # A served app cell is measured exactly as a sweep's.
        from repro.cli import _runner
        from repro.serve import ServeDaemon
        daemon = ServeDaemon()
        try:
            served = daemon.runner
            swept = _runner(parser.parse_args(["run-uu"]))
            assert (served.max_instructions, served.compile_timeout) == \
                (swept.max_instructions, swept.compile_timeout)
        finally:
            daemon.shutdown()

    def test_submit_rejects_malformed_request(self, capsys):
        # No source at all: fails client-side before touching the network.
        assert main(["submit", "--config", "baseline"]) == 2
        err = capsys.readouterr().err
        assert "exactly one of app/ir/kernel" in err

    def test_submit_against_live_daemon(self, capsys, tmp_path):
        import json as json_mod

        from repro.serve import ServeDaemon

        ir_file = tmp_path / "kernel.ll"
        ir_file.write_text(
            (__import__("pathlib").Path(__file__).parent / "corpus"
             / "fuzz_seed7_structured.ll").read_text())
        daemon = ServeDaemon(workers=1, use_cache=False)
        daemon.start()
        try:
            out_file = tmp_path / "result.json"
            assert main(["submit", "--ir", str(ir_file),
                         "--config", "uu_heuristic", "--lanes", "8",
                         "--url", daemon.url, "--out", str(out_file)]) == 0
            out = capsys.readouterr().out
            assert "ok=yes" in out
            payload = json_mod.loads(out_file.read_text())
            assert payload["status"] == "ok"
            assert payload["remarks"]

            assert main(["serve-status", "--url", daemon.url]) == 0
            status_out = capsys.readouterr().out
            assert "executed:  1" in status_out
        finally:
            daemon.shutdown()

    def test_serve_status_unreachable_daemon(self, capsys):
        assert main(["serve-status",
                     "--url", "http://127.0.0.1:1"]) == 1
        assert "unreachable" in capsys.readouterr().err

    def test_cache_stats_reports_orphans_and_cap(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "2048")
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "aa.json").write_text("{}")
        (tmp_path / "cache" / "bb.json.tmp.99-0").write_text("orphan")
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "orphans: 1 tmp file(s)" in out
        assert "cap:     2.0 KiB" in out
        # clear sweeps the orphan along with the entry.
        assert main(["cache", "clear"]) == 0
        assert "removed 2" in capsys.readouterr().out
