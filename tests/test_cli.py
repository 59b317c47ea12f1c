"""Tests for the file-level CLI tool."""

import asyncio
import json
import threading
import zlib

import pytest

from repro.cli import main, MANIFEST_SUFFIX
from repro.cluster import LocalCluster
from repro.codes import make_code


@pytest.fixture
def payload_file(tmp_path):
    path = tmp_path / "data.bin"
    # Deliberately NOT a multiple of the stripe size (exercises padding).
    path.write_bytes(bytes(range(256)) * 700 + b"tail")
    return path


def encode(payload_file, tmp_path, **over):
    argv = ["encode", str(payload_file), "--k", "4", "--element-size", "64",
            "--out-dir", str(tmp_path / "shards")]
    for key, val in over.items():
        argv += [f"--{key}", str(val)]
    assert main(argv) == 0
    return tmp_path / "shards" / (payload_file.name + MANIFEST_SUFFIX)


class TestEncode:
    def test_produces_pieces_and_manifest(self, payload_file, tmp_path):
        manifest = encode(payload_file, tmp_path)
        meta = json.loads(manifest.read_text())
        assert meta["k"] == 4 and meta["code"] == "liberation-optimal"
        shards = manifest.parent
        for j in range(4):
            assert (shards / f"data.bin.d{j}").exists()
        assert (shards / "data.bin.p").exists()
        assert (shards / "data.bin.q").exists()

    def test_piece_sizes_uniform(self, payload_file, tmp_path):
        manifest = encode(payload_file, tmp_path)
        meta = json.loads(manifest.read_text())
        sizes = {
            (manifest.parent / name).stat().st_size for name in meta["pieces"]
        }
        assert len(sizes) == 1  # all strips equal length


class TestDecode:
    def test_round_trip_no_loss(self, payload_file, tmp_path):
        manifest = encode(payload_file, tmp_path)
        out = tmp_path / "restored.bin"
        assert main(["decode", str(manifest), "-o", str(out)]) == 0
        assert out.read_bytes() == payload_file.read_bytes()

    @pytest.mark.parametrize("victims", [("d1",), ("d0", "d3"), ("d2", "q"), ("p", "q")])
    def test_recover_with_losses(self, payload_file, tmp_path, victims):
        manifest = encode(payload_file, tmp_path)
        for v in victims:
            (manifest.parent / f"data.bin.{v}").unlink()
        out = tmp_path / "restored.bin"
        assert main(["decode", str(manifest), "-o", str(out)]) == 0
        assert out.read_bytes() == payload_file.read_bytes()

    def test_three_losses_rejected(self, payload_file, tmp_path):
        manifest = encode(payload_file, tmp_path)
        for v in ("d0", "d1", "p"):
            (manifest.parent / f"data.bin.{v}").unlink()
        assert main(["decode", str(manifest), "-o", str(tmp_path / "x")]) == 1

    def test_corrupt_piece_treated_as_erasure(self, payload_file, tmp_path):
        manifest = encode(payload_file, tmp_path)
        victim = manifest.parent / "data.bin.d2"
        blob = bytearray(victim.read_bytes())
        blob[5] ^= 0xFF
        victim.write_bytes(bytes(blob))
        out = tmp_path / "restored.bin"
        assert main(["decode", str(manifest), "-o", str(out)]) == 0
        assert out.read_bytes() == payload_file.read_bytes()

    def test_repair_rewrites_pieces(self, payload_file, tmp_path):
        manifest = encode(payload_file, tmp_path)
        victim = manifest.parent / "data.bin.d1"
        original = victim.read_bytes()
        victim.unlink()
        out = tmp_path / "restored.bin"
        assert main(["decode", str(manifest), "-o", str(out), "--repair"]) == 0
        assert victim.read_bytes() == original

    def test_other_codes(self, payload_file, tmp_path):
        for code in ("evenodd", "rdp", "reed-solomon"):
            manifest = encode(payload_file, tmp_path / code, code=code)
            (manifest.parent / "data.bin.d0").unlink()
            out = tmp_path / f"restored-{code}.bin"
            assert main(["decode", str(manifest), "-o", str(out)]) == 0
            assert out.read_bytes() == payload_file.read_bytes()


class TestVerify:
    def test_clean(self, payload_file, tmp_path, capsys):
        manifest = encode(payload_file, tmp_path)
        assert main(["verify", str(manifest)]) == 0
        assert "all pieces present" in capsys.readouterr().out

    def test_recoverable_damage(self, payload_file, tmp_path, capsys):
        manifest = encode(payload_file, tmp_path)
        (manifest.parent / "data.bin.d0").unlink()
        assert main(["verify", str(manifest)]) == 0
        assert "recoverable" in capsys.readouterr().out

    def test_unrecoverable_damage(self, payload_file, tmp_path, capsys):
        manifest = encode(payload_file, tmp_path)
        for v in ("d0", "d1", "d2"):
            (manifest.parent / f"data.bin.{v}").unlink()
        assert main(["verify", str(manifest)]) == 1
        assert "NOT recoverable" in capsys.readouterr().out


class TestInfo:
    def test_prints_table(self, capsys):
        assert main(["info", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "liberation-optimal" in out and "lower-bound" in out


class TestAnalyze:
    def test_clean_run_exits_zero(self, capsys):
        rc = main(["analyze", "--families", "liberation-optimal",
                   "--p", "5", "--k", "2,4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "analysis clean" in out and "liberation-optimal" in out

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["analyze", "--families", "evenodd", "--p", "5", "--k", "3",
                   "--json", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["ok"] and payload["n_geometries"] == 1
        assert payload["ast_lint"] == []
        enc = payload["results"][0]["encode"]
        assert enc["proof"]["ok"] and not enc["optimal"]

    def test_bad_prime_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--p", "five"])

    def test_concurrency_only_mode(self, capsys):
        rc = main(["analyze", "--concurrency"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "concurrency passes:" in out
        assert "static analysis" not in out  # proofs skipped

    def test_json_to_stdout(self, capsys):
        rc = main(["analyze", "--concurrency", "--json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        start = out.index("{")
        end = out.rindex("}") + 1
        payload = json.loads(out[start:end])
        assert payload["ok"] is True
        assert payload["exit_code"] == 0
        assert set(payload["concurrency"]["per_pass"]) == {
            "async", "locks", "views", "protocol"
        }

    def test_full_run_includes_concurrency(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["analyze", "--families", "evenodd", "--p", "5", "--k", "3",
                   "--json", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["ok"] and payload["concurrency"]["ok"]
        assert payload["n_geometries"] == 1  # prover fields still present

    def test_findings_exit_one(self, monkeypatch, capsys):
        # Seed one finding through the baseline checker: a stale entry
        # is itself a finding, so point the analyzer at a ghost baseline.
        import repro.analysis.concurrency as conc

        real = conc.run_concurrency_analysis

        def with_ghost_baseline(root=None, **kw):
            from repro.analysis.concurrency.findings import Finding
            report = real(root, **kw)
            report.findings.append(
                Finding("BASE001", "ghost.py", 0, "x", "stale entry")
            )
            return report

        monkeypatch.setattr(
            "repro.analysis.concurrency.run_concurrency_analysis",
            with_ghost_baseline,
        )
        rc = main(["analyze", "--concurrency"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "analysis FAILED" in out and "BASE001" in out

    def test_tool_error_exit_two(self, monkeypatch, capsys):
        def broken(root=None, **kw):
            raise ValueError("malformed baseline entry")

        monkeypatch.setattr(
            "repro.analysis.concurrency.run_concurrency_analysis", broken
        )
        rc = main(["analyze", "--concurrency"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "analyze ERROR" in err


@pytest.mark.slow
class TestServeAndStats:
    """Real sockets + a background thread: slow-marked like test_node."""

    def serve_in_thread(self, tmp_path, *extra):
        """Start `serve` on an ephemeral port; returns (thread, port)."""
        import threading
        import time

        port_file = tmp_path / "port"
        argv = ["serve", "--column", "1", "--stripes", "4", "--k", "3", "--p", "5",
                "--element-size", "64", "--port", "0", "--port-file", str(port_file),
                *extra]
        thread = threading.Thread(target=main, args=(argv,), daemon=True)
        thread.start()
        deadline = time.time() + 10
        while not port_file.exists():
            assert time.time() < deadline, "serve never bound its port"
            assert thread.is_alive(), "serve exited before binding"
            time.sleep(0.01)
        return thread, int(port_file.read_text())

    def test_serve_then_stats_then_shutdown(self, tmp_path, capsys):
        thread, port = self.serve_in_thread(tmp_path)
        assert main(["stats", f"127.0.0.1:{port}"]) == 0
        out = capsys.readouterr().out
        assert f"node 127.0.0.1:{port}" in out
        assert "requests_stats" in out and "disk_n_strips" in out
        # Second call with --shutdown terminates the server cleanly.
        assert main(["stats", f"127.0.0.1:{port}", "--shutdown"]) == 0
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert "shutdown acknowledged" in capsys.readouterr().out

    def test_stats_counts_real_traffic(self, tmp_path, capsys):
        import asyncio

        import numpy as np

        from repro.cluster import NodeClient, RetryPolicy

        thread, port = self.serve_in_thread(tmp_path)
        strip = np.zeros(40, dtype=np.uint64).tobytes()  # 5 rows x 8 words

        async def traffic():
            client = NodeClient(("127.0.0.1", port),
                                policy=RetryPolicy(attempts=2, timeout=1.0))
            await client.request("put", {"stripe": 2, "crcs": [zlib.crc32(strip)]}, strip)
            _, payload = await client.request("get", {"stripe": 2})
            client.close()
            return payload

        assert asyncio.run(traffic()) == strip
        assert main(["stats", f"127.0.0.1:{port}", "--shutdown"]) == 0
        thread.join(timeout=5)
        out = capsys.readouterr().out
        assert "requests_put" in out and "requests_get" in out

    def test_stats_unreachable_node_fails(self, capsys):
        # A port from the ephemeral range with (almost surely) no listener;
        # connection refused is immediate on loopback.
        assert main(["stats", "127.0.0.1:1", "--timeout", "1"]) == 1
        assert "unreachable" in capsys.readouterr().out


@pytest.mark.slow
class TestClusterMembershipCli:
    """``repro cluster status/join/drain`` against a live node: the
    node is just a durable table store, so one server exercises the
    whole verb surface including the bad-request path."""

    def serve_in_thread(self, tmp_path):
        import threading
        import time

        port_file = tmp_path / "port"
        argv = ["serve", "--column", "0", "--stripes", "4", "--k", "3",
                "--p", "5", "--element-size", "64", "--port", "0",
                "--port-file", str(port_file)]
        thread = threading.Thread(target=main, args=(argv,), daemon=True)
        thread.start()
        deadline = time.time() + 10
        while not port_file.exists():
            assert time.time() < deadline, "serve never bound its port"
            assert thread.is_alive(), "serve exited before binding"
            time.sleep(0.01)
        return thread, int(port_file.read_text())

    def test_status_join_drain_round_trip(self, tmp_path, capsys):
        thread, port = self.serve_in_thread(tmp_path)
        addr = f"127.0.0.1:{port}"

        assert main(["cluster", "status", addr]) == 0
        assert "epoch 0: no nodes recorded" in capsys.readouterr().out

        assert main(["cluster", "join", addr, "n7", "127.0.0.1:9999",
                     "--live"]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out and "n7" in out and "live" in out

        assert main(["cluster", "drain", addr, "n7"]) == 0
        out = capsys.readouterr().out
        assert "epoch 2" in out and "draining" in out

        # Illegal mutation: validated table, typed error, exit 1.
        assert main(["cluster", "drain", addr, "ghost"]) == 1
        assert "unknown node" in capsys.readouterr().out

        # The table survived the failed mutation.
        assert main(["cluster", "status", addr]) == 0
        assert "epoch 2" in capsys.readouterr().out

        assert main(["stats", addr, "--shutdown"]) == 0
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def served():
    """A 4-stripe k=3 cluster on real sockets, its nodes on an event
    loop in a background thread (the CLI runs its own in the test's);
    yields the cluster and a runner for coroutines on that loop."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    code = make_code("liberation-optimal", 3, p=5, element_size=64)
    cluster = LocalCluster(code, 4)

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=60)

    run(cluster.start())
    yield cluster, run
    run(cluster.stop())
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5)
    loop.close()


@pytest.mark.slow
class TestClusterHealCli:
    """``cluster heal`` against real sockets."""

    def test_stopped_node_fails_then_rebuild_heals_it(self, served, capsys):
        cluster, run = served

        async def write():
            arr = cluster.array()
            data = bytes(range(256)) * (arr.capacity // 256)
            await arr.write(0, data)
            return data

        async def read():
            arr = cluster.array()
            return await arr.read(0, arr.capacity), arr.metrics.get("decodes")

        data = run(write())
        argv = ["cluster", "heal",
                *(f"{host}:{port}" for host, port in cluster.addresses),
                "--stripes", "4", "--p", "5", "--element-size", "64",
                "--probes", "3", "--timeout", "0.5"]
        run(cluster.stop_node(1))
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "column" in out and "breaker" in out
        row = next(line for line in out.splitlines() if "FAILED" in line)
        assert "open" in row

        host, port = run(cluster.start_replacement(1))
        assert main([*argv, "--rebuild", "1", "--spare", f"{host}:{port}"]) == 0
        assert "rebuilt 4 stripes" in capsys.readouterr().out
        cluster.promote_replacement(1)
        assert run(read()) == (data, 0)


@pytest.mark.slow
class TestClusterScrubCli:
    """``cluster scrub`` against real sockets: exit 0 iff the pass
    leaves the array healthy."""

    @staticmethod
    def written(cluster, run) -> list[str]:
        """Fill the array; returns the ``cluster scrub`` argv for it."""

        async def write():
            arr = cluster.array()
            await arr.write(0, bytes(range(256)) * (arr.capacity // 256))

        run(write())
        return ["cluster", "scrub",
                *(f"{host}:{port}" for host, port in cluster.addresses),
                "--stripes", "4", "--p", "5", "--element-size", "64",
                "--timeout", "0.5"]

    def test_clean_pass_settles_every_stripe_by_probe(self, served, capsys):
        cluster, run = served
        argv = self.written(cluster, run)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 stripes scanned, 4 clean (4 settled by CRC probe)" in out
        assert "array healthy" in out

    def test_rotted_strip_is_corrected_then_probes_clean(self, served, capsys):
        cluster, run = served
        argv = self.written(cluster, run)

        async def rot():
            cluster.nodes[1].disk.corrupt(2, seed=5)

        run(rot())
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "corrected: stripe 2 column 1" in out
        assert "(3 settled by CRC probe)" in out
        assert main(argv) == 0
        assert "(4 settled by CRC probe)" in capsys.readouterr().out

    def test_stopped_node_defers_its_stripes(self, served, capsys):
        cluster, run = served
        argv = self.written(cluster, run)
        run(cluster.stop_node(1))
        assert main(argv) == 1
        out = capsys.readouterr().out
        for stripe in range(4):
            assert f"deferred (column unreachable): stripe {stripe}" in out
        assert "array NOT healthy" in out


class TestRoundTripProperty:
    def test_random_sizes_and_losses(self, tmp_path):
        """Fuzz: arbitrary file sizes (incl. empty-ish and unaligned),
        arbitrary recoverable loss patterns."""
        import random

        rnd = random.Random(0xBEEF)
        for trial in range(6):
            size = rnd.choice([1, 63, 64, 4096, 10_001, 99_999])
            k = rnd.choice([2, 3, 5, 8])
            src = tmp_path / f"t{trial}.bin"
            src.write_bytes(rnd.randbytes(size))
            shard_dir = tmp_path / f"s{trial}"
            assert main([
                "encode", str(src), "--k", str(k),
                "--element-size", "64", "--out-dir", str(shard_dir),
            ]) == 0
            manifest = shard_dir / (src.name + MANIFEST_SUFFIX)
            pieces = [f"d{j}" for j in range(k)] + ["p", "q"]
            victims = rnd.sample(pieces, rnd.randint(0, 2))
            for v in victims:
                (shard_dir / f"{src.name}.{v}").unlink()
            out = tmp_path / f"o{trial}.bin"
            assert main(["decode", str(manifest), "-o", str(out)]) == 0
            assert out.read_bytes() == src.read_bytes(), (trial, size, k, victims)


class TestTrace:
    """`repro trace`: Chrome trace_event JSON with audited XOR counts."""

    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main(["trace", "--k", "11", "--p", "11", "--element-size", "64",
                   "--erasures", "0,1", "--out", str(out),
                   "--jsonl", str(jsonl)])
        assert rc == 0
        doc = json.loads(out.read_text())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events, "trace must contain complete events"
        # Acceptance: the liberation-optimal encode span reports exactly
        # the audited XOR count (2w(k-1) = 220 at p = k = 11).
        encodes = [e for e in events
                   if e["name"] == "code.encode"
                   and e["args"].get("code") == "liberation-optimal"]
        assert encodes and all(e["args"]["xors"] == 220 for e in encodes)
        # Both families appear, so the comparison is in one timeline.
        assert {e["args"].get("code") for e in events if "code" in e["args"]} \
            == {"liberation-optimal", "liberation-original"}
        assert len(jsonl.read_text().strip().split("\n")) == len(events)
        assert "trace digest:" in capsys.readouterr().out

    def test_trace_leaves_no_tracer_behind(self, tmp_path):
        from repro.obs.tracing import active_tracer

        assert main(["trace", "--k", "4", "--p", "5", "--element-size", "64",
                     "--out", str(tmp_path / "t.json")]) == 0
        assert active_tracer() is None


class TestGatewayBench:
    def test_sim_mode_prints_table_and_digest(self, capsys):
        assert main(["gateway", "bench", "--mode", "sim",
                     "--seed", "5", "--ops", "60"]) == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert "60 ok" in out

    def test_sim_json_digest_is_stable_across_invocations(self, capsys):
        argv = ["gateway", "bench", "--mode", "sim", "--seed", "9",
                "--ops", "50", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["digest"] == second["digest"]
        assert first["ok"] == 50 and first["mode"] == "sim"

    def test_perf_flag_merges_into_bench_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gateway", "bench", "--mode", "sim", "--ops", "40",
                     "--perf"]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert "gateway_ops/sim/cli" in data["metrics"]

    def test_fuzz_objects_flag_is_wired(self, capsys):
        assert main(["sim", "fuzz", "--cases", "2", "--objects"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fuzz_membership_flag_is_wired(self, capsys):
        assert main(["sim", "fuzz", "--cases", "8", "--membership"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sim_run_membership_reports_node_count(self, capsys):
        assert main(["sim", "run", "--seed", "5", "--membership"]) == 0
        out = capsys.readouterr().out
        assert "nodes=" in out and "digest" in out
