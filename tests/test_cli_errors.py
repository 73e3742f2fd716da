"""CLI contract tests: --version and nonzero-exit error handling.

Every subcommand must exit nonzero on operational failure with a
one-line ``repro <command>: error: ...`` message instead of a bare
traceback (``REPRO_DEBUG=1`` re-raises for debugging).
"""

import pytest

from repro import __version__
from repro.cli import main


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestErrorExitCodes:
    @pytest.mark.parametrize("argv", [
        ["trace", "no-such-benchmark"],
        ["run", "no-such-benchmark", "--scale", "0.1"],
        ["classify", "no-such-benchmark"],
    ])
    def test_unknown_benchmark_is_friendly(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error:" in err
        assert "unknown benchmark" in err
        assert "Traceback" not in err

    def test_unknown_bsa_in_run(self, capsys):
        assert main(["run", "conv", "--scale", "0.1",
                     "--bsas", "simd,warp"]) == 1
        err = capsys.readouterr().err
        assert "unknown BSAs" in err

    def test_sweep_unknown_benchmark(self, capsys):
        assert main(["sweep", "no-such-benchmark",
                     "--scale", "0.1"]) == 1
        err = capsys.readouterr().err
        assert "repro sweep: error:" in err

    def test_sweep_has_no_resume_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "conv", "--scale", "0.1", "--resume"])
        assert info.value.code == 2
        assert "unrecognized arguments: --resume" \
            in capsys.readouterr().err

    def test_debug_env_reraises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(Exception):
            main(["trace", "no-such-benchmark"])

    def test_success_still_exits_zero(self, capsys):
        assert main(["trace", "conv", "--scale", "0.1"]) == 0


class TestWorkerOfUrl:
    @pytest.mark.parametrize("url", [
        "notaurl", "127.0.0.1:8900", "https://coord:8900", "http://coord",
        "http://:8900", "http://coord:port", "http://coord:8900/v1",
        "http://coord:8900?x=1", "http://user@coord:8900", "http://[::1",
    ])
    def test_a_url_without_the_host_port_shape_is_refused(
            self, url, capsys, monkeypatch):
        def serve(_config):
            raise AssertionError(f"serve started for {url!r}")

        monkeypatch.setattr("repro.service.serve", serve)
        assert main(["serve", "--port", "0", "--no-cache",
                     "--worker-of", url]) == 2
        err = capsys.readouterr().err
        assert "repro serve: error: --worker-of" in err
        assert "http://host:port" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:8900", "http://coord-host:8900/",
        "http://[::1]:8900",
    ])
    def test_host_port_urls_are_accepted(self, url):
        from repro.cli import _is_host_port_url
        assert _is_host_port_url(url)


class TestServeParser:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3",
             "--pool", "thread", "--queue-depth", "5",
             "--max-jobs", "2", "--no-cache",
             "--drain-timeout", "7.5"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 3
        assert args.pool == "thread"
        assert args.queue_depth == 5
        assert args.max_jobs == 2
        assert args.no_cache is True
        assert args.drain_timeout == 7.5
