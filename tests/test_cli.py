"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["table2"],
            ["scaling"],
            ["batch", "--count", "3"],
        ],
    )
    def test_fast_commands_run(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_table1_output(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "TABLE I" in out and "proposed" in out

    def test_table2_output(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        assert "TABLE II" in out and "speedup" in out

    def test_deployments_output(self, capsys):
        main(["deployments"])
        out = capsys.readouterr().out
        assert "Cyclone" in out and "Stratix" in out

    def test_small_multiply(self, capsys):
        main(["multiply", "--bits", "5000", "--seed", "3"])
        out = capsys.readouterr().out
        assert "OK" in out and "carry_recovery" in out

    def test_batch_count(self, capsys):
        main(["batch", "--count", "5"])
        out = capsys.readouterr().out
        assert "batch of 5" in out


class TestArchCLI:
    def test_arch_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["arch"])

    def test_arch_show_paper_default(self, capsys):
        assert main(["arch", "show"]) == 0
        out = capsys.readouterr().out
        assert "paper-date16" in out
        assert "hypercube" in out
        assert "area proxy" in out
        assert "T_FFT 30.72 us" in out

    def test_arch_show_json_round_trips(self, capsys):
        assert main(["arch", "show", "--json"]) == 0
        from repro.arch import ArchSpec

        spec = ArchSpec.from_json(capsys.readouterr().out)
        assert spec == ArchSpec.paper_default()

    def test_arch_show_spec_file(self, tmp_path, capsys):
        from repro.arch import ArchSpec

        spec = ArchSpec.paper_default().with_overrides(
            pes=8, topology="ring", name="from-file"
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["arch", "show", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "from-file" in out and "ring" in out

    def test_arch_sweep_writes_pareto_json(self, tmp_path, capsys):
        out_path = tmp_path / "pareto.json"
        assert (
            main(
                [
                    "arch",
                    "sweep",
                    "--max-candidates",
                    "24",
                    "--pareto",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "design-space exploration" in out
        assert "paper point" in out
        payload = json.loads(out_path.read_text())
        assert payload["frontier"]
        assert payload["paper"]["total_cycles"] > 0


class TestServeClientCLI:
    def test_client_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])

    def test_client_submit_requires_op_and_payload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "submit"])

    def test_serve_rejects_bad_queue_bounds(self):
        with pytest.raises(SystemExit):
            main(["serve", "--max-queue", "0", "--max-requests", "1"])

    def test_client_submit_rlwe_multiply(self, capsys):
        """`repro client submit --op rlwe-multiply` round trip: the
        returned ciphertext decrypts to the plaintext ring product."""
        import random

        from repro.fhe.rlwe import RLWE, RLWECiphertext, RLWEParams
        from repro.field.vector import to_field_array

        params = RLWEParams(n=64, t=17, noise_bound=4)
        scheme = RLWE(params, rng=random.Random(53))
        keys = scheme.keygen()
        rng = random.Random(54)
        m1 = [rng.randrange(params.t) for _ in range(params.n)]
        m2 = [rng.randrange(params.t) for _ in range(params.n)]
        c1, c2 = scheme.encrypt_many(keys, [m1, m2])
        payload = json.dumps(
            {
                "n": params.n,
                "t": params.t,
                "noise_bound": params.noise_bound,
                "relin": keys.relin.to_payload(),
                "pairs": [
                    [
                        [
                            [int(v) for v in c1.c0],
                            [int(v) for v in c1.c1],
                        ],
                        [
                            [int(v) for v in c2.c0],
                            [int(v) for v in c2.c1],
                        ],
                    ]
                ],
            }
        )

        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--max-requests",
                "1",
                "--max-queue",
                "16",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", banner)
            assert match, f"no listening banner: {banner!r}"
            port = match.group(1)
            assert (
                main(
                    [
                        "client",
                        "submit",
                        "--port",
                        port,
                        "--op",
                        "rlwe-multiply",
                        "--payload",
                        payload,
                    ]
                )
                == 0
            )
            body = json.loads(capsys.readouterr().out)
            assert body["status"] == "ok"
            (raw_c0, raw_c1), = body["result"]
            product = RLWECiphertext(
                c0=to_field_array(raw_c0),
                c1=to_field_array(raw_c1),
                params=params,
            )
            truth = [0] * params.n
            for i in range(params.n):
                for j in range(params.n):
                    k = i + j
                    if k < params.n:
                        truth[k] += m1[i] * m2[j]
                    else:
                        truth[k - params.n] -= m1[i] * m2[j]
            assert scheme.decrypt(keys, product) == [
                x % params.t for x in truth
            ]
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
            server.stdout.close()

    def test_serve_and_client_roundtrip(self, capsys):
        """End-to-end smoke: `repro serve` + `repro client submit|stats`.

        The server runs as a subprocess on an ephemeral port with
        ``--max-requests 2`` so it exits by itself after the second
        submit; the client commands run in-process via ``main``.
        """
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(src) + os.pathsep + env.get("PYTHONPATH", "")
        )
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--max-requests",
                "2",
                "--max-queue",
                "16",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", banner)
            assert match, f"no listening banner: {banner!r}"
            port = match.group(1)

            assert (
                main(
                    [
                        "client",
                        "submit",
                        "--port",
                        port,
                        "--op",
                        "multiply",
                        "--payload",
                        '{"pairs": [[6, 7], [11, 13]]}',
                    ]
                )
                == 0
            )
            body = json.loads(capsys.readouterr().out)
            assert body["status"] == "ok"
            assert body["result"] == [42, 143]

            assert main(["client", "stats", "--port", port]) == 0
            stats_out = capsys.readouterr().out
            assert "service stats" in stats_out
            assert "coalescing" in stats_out

            # Second submit trips --max-requests: the server drains
            # and exits on its own.
            assert (
                main(
                    [
                        "client",
                        "submit",
                        "--port",
                        port,
                        "--op",
                        "convolve",
                        "--payload",
                        json.dumps(
                            {
                                "n": 8,
                                "a": [1, 0, 0, 0, 0, 0, 0, 0],
                                "b": [0, 2, 0, 0, 0, 0, 0, 0],
                                "negacyclic": True,
                            }
                        ),
                    ]
                )
                == 0
            )
            body = json.loads(capsys.readouterr().out)
            assert body["result"] == [0, 2, 0, 0, 0, 0, 0, 0]
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
