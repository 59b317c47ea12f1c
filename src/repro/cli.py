"""Command-line file erasure tool (the Jerasure encoder/decoder analog).

Splits a file into ``k`` data strip-files plus P and Q parity files;
any two of the ``k+2`` pieces may be lost and the original file still
reassembles bit-perfectly.

::

    python -m repro.cli encode big.tar --k 6 --out-dir shards/
    rm shards/big.tar.d2 shards/big.tar.q       # lose two pieces
    python -m repro.cli decode shards/big.tar.manifest.json -o restored.tar
    python -m repro.cli verify shards/big.tar.manifest.json
    python -m repro.cli info --k 10             # complexity summary

A JSON *manifest* records the code configuration, original length and
per-piece SHA-256 digests, so decoding detects silent corruption of
individual pieces (and, for Liberation codes, can locate/repair a
single corrupted piece via the paper's error-correction procedure).

The distributed stripe store (:mod:`repro.cluster`) is operated from
here too:

::

    python -m repro.cli serve --column 0 --stripes 64 --k 4   # one per column
    python -m repro.cli stats 127.0.0.1:9100 127.0.0.1:9101   # metrics view
    python -m repro.cli cluster scrub 127.0.0.1:9100 ... --stripes 64
    python -m repro.cli cluster heal 127.0.0.1:9100 ... --rebuild 2 --spare 127.0.0.1:9200

And the deterministic simulation / differential-fuzzing harness
(:mod:`repro.sim`):

::

    python -m repro.cli sim fuzz --seed 7 --duration 600      # hunt divergences
    python -m repro.cli sim replay repro-1234.json            # re-run a repro
    python -m repro.cli sim run --seed 42                     # one scenario

And the static analyzer (:mod:`repro.analysis.static`) -- symbolic
correctness proofs for every schedule, the XOR-optimality audit against
the paper's ``k-1`` bound, and the project sim-seam AST lint:

::

    python -m repro.cli analyze --all-families --p 5,7,11,13
    python -m repro.cli analyze --families liberation-optimal --json report.json

And the observability layer (:mod:`repro.obs`) -- span traces of real
encodes/decodes (Chrome ``trace_event`` JSON, loadable in Perfetto) and
the benchmark-regression gate:

::

    python -m repro.cli trace --k 11 --p 11 --out trace.json
    python -m repro.cli bench regress --tolerance 0.15
    python -m repro.cli stats 127.0.0.1:9100 --prometheus
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import pathlib
import sys

import numpy as np

from repro.codes import available_codes, make_code
from repro.utils.words import WORD_DTYPE

__all__ = ["main"]

MANIFEST_SUFFIX = ".manifest.json"


def _piece_names(stem: str, k: int) -> list[str]:
    return [f"{stem}.d{j}" for j in range(k)] + [f"{stem}.p", f"{stem}.q"]


def _build_code(meta: dict):
    kwargs = {"element_size": meta["element_size"]}
    if meta.get("p"):
        kwargs["p"] = meta["p"]
    if meta["code"] == "reed-solomon":
        kwargs["rows"] = meta["rows"]
    return make_code(meta["code"], meta["k"], **kwargs)


def cmd_encode(args) -> int:
    src = pathlib.Path(args.file)
    data = src.read_bytes()
    code = make_code(args.code, args.k, element_size=args.element_size,
                     **({"p": args.p} if args.p else {}))
    out_dir = pathlib.Path(args.out_dir or src.parent)
    out_dir.mkdir(parents=True, exist_ok=True)

    stripe_bytes = code.data_bytes
    n_stripes = max(1, -(-len(data) // stripe_bytes))
    padded = data.ljust(n_stripes * stripe_bytes, b"\0")

    pieces = [bytearray() for _ in range(code.n_cols)]
    buf = code.alloc_stripe()
    for s in range(n_stripes):
        chunk = np.frombuffer(
            padded[s * stripe_bytes : (s + 1) * stripe_bytes], dtype=np.uint8
        )
        for j in range(code.k):
            strip = chunk[j * code.strip_bytes : (j + 1) * code.strip_bytes]
            buf[j] = strip.view(WORD_DTYPE).reshape(code.rows, -1)
        code.encode(buf)
        for col in range(code.n_cols):
            pieces[col] += buf[col].tobytes()

    stem = out_dir / src.name
    names = _piece_names(str(stem), code.k)
    digests = {}
    for name, blob in zip(names, pieces):
        pathlib.Path(name).write_bytes(bytes(blob))
        digests[pathlib.Path(name).name] = hashlib.sha256(bytes(blob)).hexdigest()

    manifest = {
        "code": code.name,
        "k": code.k,
        "p": getattr(code, "p", None),
        "rows": code.rows,
        "element_size": code.element_size,
        "file_name": src.name,
        "file_size": len(data),
        "n_stripes": n_stripes,
        "pieces": digests,
        "file_sha256": hashlib.sha256(data).hexdigest(),
    }
    mpath = pathlib.Path(str(stem) + MANIFEST_SUFFIX)
    mpath.write_text(json.dumps(manifest, indent=2))
    print(f"encoded {src} -> {code.n_cols} pieces + {mpath.name} "
          f"({n_stripes} stripes, {code.name})")
    return 0


def _load_pieces(meta: dict, mdir: pathlib.Path):
    """Return (arrays-or-None per column, missing column list, corrupt list)."""
    stem = mdir / meta["file_name"]
    names = _piece_names(str(stem), meta["k"])
    strips, missing, corrupt = [], [], []
    for col, name in enumerate(names):
        path = pathlib.Path(name)
        if not path.exists():
            strips.append(None)
            missing.append(col)
            continue
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != meta["pieces"][path.name]:
            corrupt.append(col)
        strips.append(np.frombuffer(blob, dtype=WORD_DTYPE))
    return names, strips, missing, corrupt


def cmd_decode(args) -> int:
    mpath = pathlib.Path(args.manifest)
    meta = json.loads(mpath.read_text())
    code = _build_code(meta)
    names, strips, missing, corrupt = _load_pieces(meta, mpath.parent)

    erased = sorted(set(missing) | set(corrupt))
    if len(erased) > 2:
        print(f"error: {len(erased)} pieces missing/corrupt ({erased}); "
              "RAID-6 tolerates at most 2", file=sys.stderr)
        return 1
    if corrupt:
        print(f"treating corrupted pieces {corrupt} as erasures")

    n_stripes = meta["n_stripes"]
    strip_words = code.strip_bytes // 8
    out = bytearray()
    buf = code.alloc_stripe()
    recovered = [bytearray() for _ in range(code.n_cols)]
    for s in range(n_stripes):
        for col in range(code.n_cols):
            if col in erased:
                buf[col] = 0
            else:
                seg = strips[col][s * strip_words : (s + 1) * strip_words]
                buf[col] = seg.reshape(code.rows, -1)
        if erased:
            code.decode(buf, erased)
            for col in erased:
                recovered[col] += buf[col].tobytes()
        out += buf[: code.k].tobytes()

    data = bytes(out[: meta["file_size"]])
    if hashlib.sha256(data).hexdigest() != meta["file_sha256"]:
        print("error: reassembled file fails its checksum", file=sys.stderr)
        return 1
    pathlib.Path(args.output).write_bytes(data)
    print(f"decoded {meta['file_name']} -> {args.output} "
          f"({len(erased)} pieces reconstructed)")
    if args.repair and erased:
        for col in erased:
            pathlib.Path(names[col]).write_bytes(bytes(recovered[col]))
        print(f"repaired piece files: {[pathlib.Path(names[c]).name for c in erased]}")
    return 0


def cmd_verify(args) -> int:
    mpath = pathlib.Path(args.manifest)
    meta = json.loads(mpath.read_text())
    _names, _strips, missing, corrupt = _load_pieces(meta, mpath.parent)
    if not missing and not corrupt:
        print("all pieces present and checksums match")
        return 0
    for col in missing:
        print(f"missing: column {col}")
    for col in corrupt:
        print(f"corrupt: column {col}")
    recoverable = len(set(missing) | set(corrupt)) <= 2
    print("recoverable" if recoverable else "NOT recoverable (beyond RAID-6)")
    return 0 if recoverable else 1


def cmd_info(args) -> int:
    from repro.bench.complexity import table1_rows
    from repro.bench.report import format_table

    print(format_table(
        table1_rows(k=args.k),
        title=f"RAID-6 code characteristics at k = {args.k} (measured)",
    ))
    print("available codes:", ", ".join(available_codes()))
    return 0


def cmd_serve(args) -> int:
    from repro.cluster.node import StripNode

    code = make_code(args.code, args.k, element_size=args.element_size,
                     **({"p": args.p} if args.p else {}))
    if not 0 <= args.column < code.n_cols:
        print(f"error: --column must be in [0, {code.n_cols}) for k={code.k} "
              f"(columns 0..{code.k - 1} data, {code.p_col} P, {code.q_col} Q)",
              file=sys.stderr)
        return 2
    strip_words = code.rows * (code.element_size // 8)

    async def run() -> int:
        node = StripNode(
            args.column, args.stripes, strip_words, host=args.host, port=args.port
        )
        host, port = await node.start()
        print(f"strip node: column {args.column} of {code.name} k={code.k}, "
              f"{args.stripes} strips x {strip_words * 8} B, "
              f"listening on {host}:{port}", flush=True)
        if args.port_file:
            # Written only once the socket is bound, so orchestrators
            # (and the test suite) can wait on it instead of polling.
            # One-shot tiny write before any request is served: no task
            # is in flight for the blocking call to stall.
            path = pathlib.Path(args.port_file)
            path.write_text(str(port))  # conc: ok[ASY102] pre-serve startup write
        await node.serve_until_shutdown()
        print(f"strip node on {host}:{port} shut down")
        return 0

    return asyncio.run(run())


def _parse_address(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address {spec!r} is not HOST:PORT")
    return host, int(port)


def cmd_stats(args) -> int:
    from repro.bench.report import format_table
    from repro.cluster.client import send_verb
    from repro.obs.metrics import MetricsRegistry

    async def run() -> int:
        rc = 0
        for spec in args.nodes:
            address = _parse_address(spec)
            try:
                if args.prometheus:
                    reply, payload = await asyncio.wait_for(
                        send_verb(address, "metrics"), args.timeout
                    )
                else:
                    reply, _ = await asyncio.wait_for(
                        send_verb(address, "stats"), args.timeout
                    )
            except (OSError, EOFError, asyncio.TimeoutError, TimeoutError) as exc:
                print(f"node {spec}: unreachable ({type(exc).__name__})")
                rc = 1
                continue
            if args.prometheus:
                # Raw text exposition, ready to paste into a scrape probe.
                print(f"# node {spec} (column {reply.get('column')})")
                sys.stdout.write(payload.decode())
            else:
                rows = [{"metric": "column", "value": reply.get("column")}]
                rows += MetricsRegistry.rows(reply.get("stats", {}))
                rows += [
                    {"metric": f"disk_{key}", "value": value}
                    for key, value in reply.get("disk", {}).items()
                ]
                print(format_table(rows, title=f"node {spec}"))
            if args.shutdown:
                await send_verb(address, "shutdown")
                print(f"node {spec}: shutdown acknowledged")
        return rc

    return asyncio.run(run())


def _parse_int_list(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(f"error: {spec!r} is not a comma-separated integer list")


def cmd_analyze(args) -> int:
    """Exit codes are stable for CI: 0 clean, 1 findings, 2 tool error."""
    from repro.analysis.concurrency import run_concurrency_analysis
    from repro.analysis.static import lint_project, run_analysis
    from repro.analysis.static.audit import default_families
    from repro.bench.report import format_table

    primes = _parse_int_list(args.p)
    ks = _parse_int_list(args.k) if args.k else None

    run_proofs = not args.concurrency
    run_lint = not (args.no_ast_lint or args.concurrency)
    run_conc = args.concurrency or not args.no_concurrency

    payload: dict = {}
    problems = 0
    try:
        report = None
        if run_proofs:
            if args.families:
                families = [
                    tok.strip() for tok in args.families.split(",") if tok.strip()
                ]
            else:
                families = list(default_families())

            def progress(what: str) -> None:
                if args.verbose:
                    print(f"  proving {what}...", flush=True)

            report = run_analysis(families, primes, ks=ks, on_progress=progress)
            print(format_table(
                report.summary_rows(),
                title=f"static analysis: {report.n_proofs} schedules proved "
                      f"over p in {{{args.p}}}",
            ))
            for failure in report.failures():
                print(f"FAIL: {failure}")
            payload.update(report.to_dict())
            problems += len(report.failures())

        ast_findings = lint_project() if run_lint else []
        for finding in ast_findings:
            print(f"AST: {finding}")
        payload["ast_lint"] = [str(f) for f in ast_findings]
        problems += len(ast_findings)

        if run_conc:
            conc = run_concurrency_analysis()
            for finding in conc.findings:
                print(f"CONC: {finding}")
            counts = ", ".join(f"{k}={v}" for k, v in conc.per_pass.items())
            print(f"concurrency passes: {counts}; "
                  f"{len(conc.findings)} finding(s), "
                  f"{len(conc.baselined)} baselined")
            payload["concurrency"] = conc.to_dict()
            problems += len(conc.findings)
    except (ValueError, OSError) as exc:
        # Exit 2, not 1: the tool itself could not run to completion
        # (unknown family, malformed baseline file, unreadable tree) --
        # a plumbing problem, not an analysis verdict.
        print(f"analyze ERROR: {exc}", file=sys.stderr)
        return 2

    ok = problems == 0
    payload["ok"] = payload.get("ok", True) and ok
    payload["exit_code"] = 0 if ok else 1
    if args.json:
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            pathlib.Path(args.json).write_text(text)
            print(f"report written to {args.json}")

    print(
        "analysis clean: every check passed"
        if ok
        else f"analysis FAILED: {problems} finding(s)"
    )
    return 0 if ok else 1


def cmd_trace(args) -> int:
    from repro.bench.report import format_table
    from repro.bench.wallclock import wall_now
    from repro.obs.tracing import Tracer, use_tracer, write_chrome_trace, write_jsonl

    families = [tok.strip() for tok in args.codes.split(",") if tok.strip()]
    erasures = _parse_int_list(args.erasures) if args.erasures else None
    tracer = Tracer(now=wall_now)

    with use_tracer(tracer):
        for name in families:
            code = make_code(name, args.k, element_size=args.element_size,
                             **({"p": args.p} if args.p else {}))
            buf = code.alloc_stripe()
            # Deterministic non-zero payload (no ambient RNG in the CLI).
            flat = buf[: code.k].reshape(-1)
            flat[:] = np.arange(1, flat.size + 1, dtype=flat.dtype)
            flat *= np.asarray(0x9E3779B97F4A7C15, dtype=flat.dtype)
            for _ in range(args.repeat):
                code.encode(buf)
            if erasures is not None:
                for _ in range(args.repeat):
                    work = buf.copy()
                    for col in erasures:
                        work[col] = 0
                    code.decode(work, erasures)

    out = write_chrome_trace(args.out, tracer.spans)
    print(f"chrome trace: {out} ({len(tracer.spans)} spans; open in "
          "Perfetto / chrome://tracing)")
    if args.jsonl:
        print(f"jsonl trace: {write_jsonl(args.jsonl, tracer.spans)}")

    rows = []
    for s in tracer.spans:
        if s.name not in ("code.encode", "code.decode", "engine.compile"):
            continue
        rows.append({
            "span": s.name,
            "code": s.attrs.get("code", "-"),
            "xors": s.attrs.get("xors"),
            "cache": s.attrs.get("cache", "-"),
            "ms": round((s.duration or 0.0) * 1e3, 3),
            "gbps": s.attrs.get("gbps", "-"),
        })
    print(format_table(
        rows,
        title=f"schedule spans: k={args.k} element={args.element_size}B "
              f"x{args.repeat}",
    ))
    print(f"trace digest: {tracer.digest()}")
    return 0


def cmd_bench_regress(args) -> int:
    from repro.bench.report import format_table
    from repro.obs.regress import PerfFileError, regress

    def progress(what: str) -> None:
        print(f"  measuring {what}...", flush=True)

    try:
        deltas, current, baseline = regress(
            out_path=args.out,
            baseline_path=args.baseline,
            tolerance=args.tolerance,
            quick=args.quick,
            on_progress=progress,
        )
    except PerfFileError as exc:
        # Exit 2, not 1: the baseline file is broken (missing, empty,
        # or malformed), which is a CI-plumbing problem, not a measured
        # performance regression.  Nothing was measured or overwritten.
        print(f"bench gate ERROR: {exc}")
        return 2
    n = len(current["metrics"])
    if baseline is None:
        print(f"no baseline found: wrote {args.out} with {n} metrics "
              "(first run establishes the trajectory)")
        if not deltas:
            return 0
    # Rows suffixed "[floor]" compare against an absolute minimum (the
    # kernel data plane's >= 5x target), not the previous run; they are
    # present even on a first run.
    print(format_table(
        [d.row() for d in deltas],
        title=f"bench regression gate (tolerance {args.tolerance:.0%})",
    ))
    regressed = [d for d in deltas if d.regressed]
    if regressed:
        for d in regressed:
            print(f"REGRESSED: {d.metric}: {d.baseline:.4f} -> {d.current:.4f} "
                  f"({d.direction} is better)")
        print(f"bench gate FAILED: {len(regressed)} of {len(deltas)} metrics "
              f"regressed beyond {args.tolerance:.0%}")
        return 1
    print(f"bench gate clean: {len(deltas)} metrics within {args.tolerance:.0%} "
          f"of baseline/floors; {args.out} updated")
    return 0


def cmd_gateway_bench(args) -> int:
    from repro.bench.report import format_table
    from repro.gateway.bench import WorkloadConfig, run_sim_bench, run_socket_bench

    cfg = WorkloadConfig(
        seed=args.seed,
        n_objects=args.objects,
        object_size=args.object_size,
        n_ops=args.ops,
        rate=args.rate,
        read_fraction=args.read_fraction,
        update_bytes=args.update_bytes,
        zipf_theta=args.zipf_theta,
    )
    if args.mode == "sim":
        report = run_sim_bench(
            cfg,
            n_stripes=args.stripes,
            service_latency=args.service_latency,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            queue_timeout=args.queue_timeout,
        )
    else:
        report = run_socket_bench(
            cfg,
            n_stripes=args.stripes,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            queue_timeout=args.queue_timeout,
        )

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    kind = "virtual" if report.mode == "sim" else "wall"
    print(format_table(
        report.rows(),
        title=f"gateway workload ({report.mode}): seed={cfg.seed} "
              f"objects={cfg.n_objects} ops={cfg.n_ops} rate={cfg.rate:g}/s",
    ))
    print(f"completed {report.ok} ok, {report.shed} shed, "
          f"{report.errors} errors in {report.elapsed_s:.4f}s {kind} time "
          f"({report.throughput_ops:.1f} ops/s)")
    print(f"trace digest: {report.digest}"
          + ("" if report.mode == "sim" else " (op stream only)"))
    if args.perf:
        from repro.obs.regress import DEFAULT_PERF_PATH, load_perf, save_perf

        path = args.perf if args.perf is not True else DEFAULT_PERF_PATH
        payload = load_perf(path) or {"schema": 1, "metrics": {}}
        payload.setdefault("metrics", {})
        payload["metrics"][f"gateway_ops/{report.mode}/cli"] = {
            "value": report.throughput_ops, "unit": "ops/s", "direction": "higher",
        }
        save_perf(payload, path)
        print(f"merged gateway_ops/{report.mode}/cli into {path}")
    return 0


def cmd_sim_fuzz(args) -> int:
    from repro.sim.differential import fuzz

    def progress(done, _record):
        if args.progress_every and done % args.progress_every == 0:
            print(f"  {done} cases in agreement...", flush=True)

    failure = fuzz(
        seed=args.seed,
        max_cases=args.cases,
        time_budget=args.duration,
        shrink=not args.no_shrink,
        chaos=args.chaos,
        objects=args.objects,
        membership=args.membership,
        on_progress=progress,
    )
    if failure is None:
        print(f"fuzz clean (seed base {args.seed})")
        return 0
    out = pathlib.Path(args.out or f"sim-repro-{failure.seed}.json")
    failure.save(out)
    print(f"DIVERGENCE after {failure.cases_run} cases (seed {failure.seed}):")
    print(f"  {failure.error}")
    print(f"  shrunk repro written to {out}")
    print(f"  replay with: python -m repro.cli sim replay {out}")
    return 1


def cmd_sim_replay(args) -> int:
    from repro.sim.differential import replay_file

    error = replay_file(args.file)
    if error is None:
        print(f"{args.file}: no divergence -- the recorded failure no longer "
              "reproduces")
        return 0
    print(f"{args.file}: still diverges:")
    print(f"  {error}")
    return 1


def cmd_sim_run(args) -> int:
    from repro.sim.scenario import generate_scenario, run_scenario

    scenario = generate_scenario(args.seed, chaos=args.chaos,
                                 objects=args.objects,
                                 elastic=args.membership)
    result = run_scenario(scenario)
    pool = f" nodes={scenario.n_nodes}" if scenario.n_nodes else ""
    print(f"scenario seed={args.seed}: {scenario.code} k={scenario.k} "
          f"p={scenario.p} element={scenario.element_size}B "
          f"stripes={scenario.n_stripes}{pool}, {len(scenario.ops)} ops")
    if args.trace:
        for record in result.trace:
            print(f"  {record}")
    print(f"virtual time: {result.virtual_end:.6f}s")
    print(f"trace digest: {result.digest}")
    return 0


def _cluster_array(args):
    from repro.cluster.client import ClusterArray, RetryPolicy

    addresses = [_parse_address(spec) for spec in args.nodes]
    k = len(addresses) - 2
    if k < 2:
        raise SystemExit("error: a cluster needs at least 4 nodes (k >= 2 plus P, Q)")
    code = make_code(args.code, k, element_size=args.element_size,
                     **({"p": args.p} if args.p else {}))
    policy = RetryPolicy(timeout=args.timeout)
    return ClusterArray(code, addresses, args.stripes, policy=policy)


def cmd_cluster_scrub(args) -> int:
    from repro.cluster.scrub import ClusterScrubber

    try:
        scrubber = ClusterScrubber(_cluster_array(args), window=args.window)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    async def run() -> int:
        report = await scrubber.scrub(repair=not args.detect_only, deep=args.deep)
        mode = "deep" if args.deep else "fast-path"
        print(f"scrub pass ({mode}): {report.stripes_scanned} stripes scanned, "
              f"{report.stripes_clean} clean "
              f"({report.fast_path_hits} settled by CRC probe)")
        for stripe, column in report.corrected:
            print(f"  corrected: stripe {stripe} column {column}")
        for stripe in report.detected_only:
            print(f"  detected only (no repair): stripe {stripe}")
        for stripe in report.deferred:
            print(f"  deferred (column unreachable): stripe {stripe}")
        for stripe in report.uncorrectable:
            print(f"  UNCORRECTABLE: stripe {stripe}")
        print("array healthy" if report.healthy
              else "array NOT healthy -- see stripes above")
        return 0 if report.healthy else 1

    return asyncio.run(run())


def cmd_cluster_heal(args) -> int:
    from repro.bench.report import format_table
    from repro.cluster.health import HealthMonitor
    from repro.cluster.rebuild import RebuildScheduler

    if (args.rebuild is None) != (args.spare is None):
        raise SystemExit("error: --rebuild and --spare go together")

    async def run() -> int:
        array = _cluster_array(args)
        monitor = HealthMonitor(
            array, miss_threshold=args.probes, probe_timeout=args.timeout
        )
        for _ in range(args.probes):
            await monitor.probe_once()
        rows = [
            {
                "column": entry["id"],
                "state": "FAILED" if entry["state"] == "dead"
                else ("missing" if entry["misses"] else "alive"),
                "misses": entry["misses"],
                "breaker": entry["breaker"],
            }
            for entry in monitor.status()["nodes"]
        ]
        print(format_table(rows, title=f"column health after {args.probes} probes"))
        if args.rebuild is not None:
            spare = _parse_address(args.spare)
            print(f"rebuilding column {args.rebuild} onto {args.spare}...")
            done = await RebuildScheduler(array).rebuild_column(args.rebuild, spare)
            print(f"rebuilt {done} stripes; column {args.rebuild} now served by "
                  f"{args.spare}")
            return 0
        return 1 if monitor.dead() else 0

    return asyncio.run(run())


def cmd_cluster_membership(args) -> int:
    """``repro cluster status|join|drain`` -- one node holds the table.

    The node stores the membership snapshot as dumb durable state
    behind the ``membership`` verb; mutations are validated by
    :class:`~repro.cluster.membership.MembershipTable` on the node, so
    illegal transitions come back as errors, not corrupted tables.
    Draining here only marks the node DRAINING (placement-ineligible,
    still serving); the actual strip migration is the rebalancer's job.
    """
    from repro.bench.report import format_table
    from repro.cluster.client import send_verb

    header: dict = {}
    if args.cluster_command == "join":
        host, port = _parse_address(args.address)
        header["join"] = {"id": args.id, "host": host, "port": port,
                          "live": args.live}
    elif args.cluster_command == "drain":
        header["drain"] = args.id

    async def run() -> int:
        reply, _ = await send_verb(
            _parse_address(args.node), "membership", header,
            timeout=args.timeout,
        )
        if reply.get("status") != "ok":
            print(f"error: {reply.get('error')}: {reply.get('detail')}")
            return 1
        table = reply.get("membership", {})
        rows = [
            {
                "node": entry["id"],
                "state": entry["state"],
                "address": f"{entry['address'][0]}:{entry['address'][1]}",
                "since_epoch": entry["since_epoch"],
            }
            for entry in table.get("nodes", ())
        ]
        title = f"membership @ epoch {table.get('epoch', 0)}"
        if rows:
            print(format_table(rows, title=title))
        else:
            print(f"{title}: no nodes recorded")
        return 0

    return asyncio.run(run())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="RAID-6 Liberation-code file erasure tool"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="split a file into k+2 pieces")
    enc.add_argument("file")
    enc.add_argument("--k", type=int, default=6, help="data pieces (default 6)")
    enc.add_argument("--p", type=int, default=None, help="prime (default: minimal)")
    enc.add_argument("--code", default="liberation-optimal", choices=available_codes())
    enc.add_argument("--element-size", type=int, default=4096)
    enc.add_argument("--out-dir", default=None)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="reassemble a file from surviving pieces")
    dec.add_argument("manifest")
    dec.add_argument("-o", "--output", required=True)
    dec.add_argument("--repair", action="store_true",
                     help="also rewrite the missing/corrupt piece files")
    dec.set_defaults(func=cmd_decode)

    ver = sub.add_parser("verify", help="check pieces against the manifest")
    ver.add_argument("manifest")
    ver.set_defaults(func=cmd_verify)

    info = sub.add_parser("info", help="print the code-comparison table")
    info.add_argument("--k", type=int, default=10)
    info.set_defaults(func=cmd_info)

    srv = sub.add_parser("serve", help="run one strip node of a cluster")
    srv.add_argument("--column", type=int, default=0, help="logical column served")
    srv.add_argument("--stripes", type=int, default=64, help="strips stored")
    srv.add_argument("--k", type=int, default=6, help="data columns of the code")
    srv.add_argument("--p", type=int, default=None, help="prime (default: minimal)")
    srv.add_argument("--code", default="liberation-optimal", choices=available_codes())
    srv.add_argument("--element-size", type=int, default=4096)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    srv.add_argument("--port-file", default=None,
                     help="write the bound port here once listening")
    srv.set_defaults(func=cmd_serve)

    st = sub.add_parser("stats", help="print strip-node metrics")
    st.add_argument("nodes", nargs="+", metavar="HOST:PORT")
    st.add_argument("--timeout", type=float, default=2.0)
    st.add_argument("--prometheus", action="store_true",
                    help="print the node's Prometheus text exposition instead")
    st.add_argument("--shutdown", action="store_true",
                    help="ask each node to shut down after reporting")
    st.set_defaults(func=cmd_stats)

    tr = sub.add_parser(
        "trace", help="trace real encodes/decodes to Chrome trace_event JSON"
    )
    tr.add_argument("--k", type=int, default=6, help="data columns (default 6)")
    tr.add_argument("--p", type=int, default=None, help="prime (default: minimal)")
    tr.add_argument("--codes", default="liberation-optimal,liberation-original",
                    help="comma-separated families to trace side by side")
    tr.add_argument("--element-size", type=int, default=4096)
    tr.add_argument("--repeat", type=int, default=3,
                    help="encodes per family (first is the plan-cache miss)")
    tr.add_argument("--erasures", default=None,
                    help="comma-separated columns to erase and decode, e.g. 0,1")
    tr.add_argument("--out", default="trace.json",
                    help="Chrome trace_event output path (default trace.json)")
    tr.add_argument("--jsonl", default=None,
                    help="also write the raw span JSONL here")
    tr.set_defaults(func=cmd_trace)

    bench = sub.add_parser("bench", help="benchmark trajectory commands")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    rg = bench_sub.add_parser(
        "regress", help="run the perf suite and diff against the previous run"
    )
    rg.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed relative drift before failing (default 0.15)")
    rg.add_argument("--out", default="BENCH_perf.json",
                    help="perf trajectory file (default BENCH_perf.json)")
    rg.add_argument("--baseline", default=None,
                    help="compare against this file instead of the previous --out")
    rg.add_argument("--quick", action="store_true",
                    help="single geometry, short timing windows (PR soft gate)")
    rg.set_defaults(func=cmd_bench_regress)

    gw = sub.add_parser("gateway", help="object-store front-end commands")
    gw_sub = gw.add_subparsers(dest="gateway_command", required=True)
    gb = gw_sub.add_parser(
        "bench",
        help="drive a zipfian object workload (sim seams or real sockets)",
    )
    gb.add_argument("--mode", choices=("sim", "real"), default="sim",
                    help="sim: virtual clock + memory transport, deterministic "
                         "digest; real: loopback sockets, measured latency")
    gb.add_argument("--seed", type=int, default=0)
    gb.add_argument("--objects", type=int, default=24, help="keyspace size")
    gb.add_argument("--object-size", type=int, default=1024)
    gb.add_argument("--ops", type=int, default=300)
    gb.add_argument("--rate", type=float, default=2000.0,
                    help="open-loop arrival rate per second")
    gb.add_argument("--read-fraction", type=float, default=0.8)
    gb.add_argument("--update-bytes", type=int, default=64)
    gb.add_argument("--zipf-theta", type=float, default=0.99)
    gb.add_argument("--stripes", type=int, default=96)
    gb.add_argument("--service-latency", type=float, default=0.0005,
                    help="per-request virtual service time in sim mode")
    gb.add_argument("--max-inflight", type=int, default=16)
    gb.add_argument("--max-queue", type=int, default=64)
    gb.add_argument("--queue-timeout", type=float, default=0.25,
                    help="shed a queued request older than this (seconds)")
    gb.add_argument("--json", action="store_true",
                    help="emit the full report as JSON")
    gb.add_argument("--perf", nargs="?", const=True, default=None,
                    help="merge throughput into this BENCH_perf.json "
                         "(default path when given without a value)")
    gb.set_defaults(func=cmd_gateway_bench)

    an = sub.add_parser(
        "analyze",
        help="symbolically prove every schedule correct and audit XOR optimality",
    )
    an.add_argument("--families", default=None,
                    help="comma-separated families (default: all schedule-based)")
    an.add_argument("--all-families", action="store_true",
                    help="explicit spelling of the default family set")
    an.add_argument("--p", default="5,7,11,13",
                    help="comma-separated primes (default 5,7,11,13)")
    an.add_argument("--k", default=None,
                    help="comma-separated k values (default: every valid k)")
    an.add_argument("--json", default=None,
                    help="write the machine-readable report to this path "
                         "('-' for stdout)")
    an.add_argument("--no-ast-lint", action="store_true",
                    help="skip the project sim-seam AST lint")
    an.add_argument("--concurrency", action="store_true",
                    help="run only the concurrency analyzer (async-safety, "
                         "lock discipline, view escapes, protocol model)")
    an.add_argument("--no-concurrency", action="store_true",
                    help="skip the concurrency analyzer")
    an.add_argument("--verbose", action="store_true",
                    help="print each geometry as it is proved")
    an.set_defaults(func=cmd_analyze)

    sim = sub.add_parser("sim", help="deterministic simulation / fuzzing")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)

    fz = sim_sub.add_parser("fuzz", help="differential-fuzz the whole stack")
    fz.add_argument("--seed", type=int, default=0, help="base case seed")
    fz.add_argument("--cases", type=int, default=None,
                    help="stop after N cases (default 100 unless --duration)")
    fz.add_argument("--duration", type=float, default=None,
                    help="stop after this many wall seconds")
    fz.add_argument("--out", default=None,
                    help="repro file path (default sim-repro-<seed>.json)")
    fz.add_argument("--no-shrink", action="store_true",
                    help="write the raw failing case without minimising")
    fz.add_argument("--progress-every", type=int, default=0,
                    help="print a heartbeat every N cases")
    fz.add_argument("--chaos", action="store_true",
                    help="include self-healing ops (corrupt/scrub/heal and "
                         "late duplicate writes) in generated scenarios")
    fz.add_argument("--objects", action="store_true",
                    help="route the data plane through the object gateway "
                         "(put/get/update/delete with a shadow oracle)")
    fz.add_argument("--membership", action="store_true",
                    help="interleave elastic membership-churn campaigns "
                         "(join/leave/drain/epoch bumps + convergence proof)")
    fz.set_defaults(func=cmd_sim_fuzz)

    rp = sim_sub.add_parser("replay", help="re-run a recorded repro file")
    rp.add_argument("file")
    rp.set_defaults(func=cmd_sim_replay)

    rn = sim_sub.add_parser("run", help="run one seeded scenario, print digest")
    rn.add_argument("--seed", type=int, default=0)
    rn.add_argument("--trace", action="store_true", help="print per-op trace")
    rn.add_argument("--chaos", action="store_true",
                    help="generate the scenario with the self-healing op set")
    rn.add_argument("--objects", action="store_true",
                    help="generate the scenario with object-gateway traffic")
    rn.add_argument("--membership", action="store_true",
                    help="generate an elastic membership-churn campaign")
    rn.set_defaults(func=cmd_sim_run)

    cl = sub.add_parser("cluster", help="operate a running stripe cluster")
    cl_sub = cl.add_subparsers(dest="cluster_command", required=True)

    sc = cl_sub.add_parser(
        "scrub", help="verify (and repair) every stripe of a live cluster"
    )
    sc.add_argument("nodes", nargs="+", metavar="HOST:PORT",
                    help="one address per column, in column order (k+2 total)")
    sc.add_argument("--stripes", type=int, default=64, help="stripes stored")
    sc.add_argument("--p", type=int, default=None, help="prime (default: minimal)")
    sc.add_argument("--code", default="liberation-optimal", choices=available_codes())
    sc.add_argument("--element-size", type=int, default=4096)
    sc.add_argument("--window", type=int, default=8,
                    help="stripes per window: one probe RPC per node, then one "
                         "fetch and one repair put per node for the window's "
                         "suspects (default 8)")
    sc.add_argument("--deep", action="store_true",
                    help="skip the CRC fast path; fetch and verify every stripe")
    sc.add_argument("--detect-only", action="store_true",
                    help="report damage without writing repairs back")
    sc.add_argument("--timeout", type=float, default=2.0)
    sc.set_defaults(func=cmd_cluster_scrub)

    hl = cl_sub.add_parser(
        "heal", help="probe column health; optionally rebuild onto a spare"
    )
    hl.add_argument("nodes", nargs="+", metavar="HOST:PORT",
                    help="one address per column, in column order (k+2 total)")
    hl.add_argument("--stripes", type=int, default=64, help="stripes stored")
    hl.add_argument("--p", type=int, default=None, help="prime (default: minimal)")
    hl.add_argument("--code", default="liberation-optimal", choices=available_codes())
    hl.add_argument("--element-size", type=int, default=4096)
    hl.add_argument("--probes", type=int, default=3,
                    help="heartbeat rounds before a column counts as failed")
    hl.add_argument("--timeout", type=float, default=0.5,
                    help="per-probe timeout in seconds (default 0.5)")
    hl.add_argument("--rebuild", type=int, default=None, metavar="COLUMN",
                    help="rebuild this column onto --spare after probing")
    hl.add_argument("--spare", default=None, metavar="HOST:PORT",
                    help="blank replacement node for --rebuild")
    hl.set_defaults(func=cmd_cluster_heal)

    st = cl_sub.add_parser(
        "status", help="print the membership table a node is holding"
    )
    st.add_argument("node", metavar="HOST:PORT",
                    help="any node holding the membership snapshot")
    st.add_argument("--timeout", type=float, default=5.0)
    st.set_defaults(func=cmd_cluster_membership)

    jn = cl_sub.add_parser(
        "join", help="announce a node to the cluster's membership table"
    )
    jn.add_argument("node", metavar="HOST:PORT",
                    help="any node holding the membership snapshot")
    jn.add_argument("id", help="joining node's identity (e.g. n7)")
    jn.add_argument("address", metavar="HOST:PORT",
                    help="joining node's data address")
    jn.add_argument("--live", action="store_true",
                    help="admit straight into the placement pool instead of "
                         "waiting in JOINING for a heartbeat verdict")
    jn.add_argument("--timeout", type=float, default=5.0)
    jn.set_defaults(func=cmd_cluster_membership)

    dr = cl_sub.add_parser(
        "drain", help="mark a node DRAINING (still serving, not placing)"
    )
    dr.add_argument("node", metavar="HOST:PORT",
                    help="any node holding the membership snapshot")
    dr.add_argument("id", help="node identity to drain")
    dr.add_argument("--timeout", type=float, default=5.0)
    dr.set_defaults(func=cmd_cluster_membership)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
