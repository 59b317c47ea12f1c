"""Protocol exhaustiveness: verb surface and crash-point sweep."""

from pathlib import Path

from repro.analysis.concurrency.protocol_model import (
    check_protocol,
    extract_caller_verbs,
    extract_crash_points,
    extract_handled_verbs,
)


NODE_SRC = (
    "class CrashPlan:\n"
    "    POINTS = ('a-before-x', 'a-before-y')\n"
    "class Node:\n"
    "    def _serve(self, verb, header, payload):\n"
    "        if verb == 'ping':\n"
    "            return {}\n"
    "        if verb == 'put':\n"
    "            return {}\n"
    "        state = 'committed'\n"
    "        if state == 'committed':\n"  # local compare: NOT a verb
    "            pass\n"
    "        return {'error': 'bad-verb'}\n"
)


class TestExtraction:
    def test_handled_verbs_from_dispatch(self):
        verbs = extract_handled_verbs(NODE_SRC)
        assert set(verbs) == {"ping", "put"}

    def test_local_compares_are_not_verbs(self):
        assert "committed" not in extract_handled_verbs(NODE_SRC)

    def test_membership_tests_count(self):
        src = (
            "def _dispatch(self, verb):\n"
            "    if verb in ('ping', 'stats'):\n"
            "        pass\n"
        )
        assert set(extract_handled_verbs(src)) == {"ping", "stats"}

    def test_caller_verbs_all_four_shapes(self):
        src = (
            "async def f(c, arr, w):\n"
            "    await c.request('get', {})\n"
            "    await send_verb(('h', 1), 'stats')\n"
            "    await arr._fan_out('put', [(0, [1])])\n"
            "    await w._rpc(0, 'prepare', {})\n"
        )
        sent = extract_caller_verbs([("m.py", src)])
        assert set(sent) == {"get", "stats", "put", "prepare"}

    def test_multiline_call_still_extracts(self):
        # the grep-proof case: verb literal on a continuation line
        src = (
            "async def f(arr):\n"
            "    await arr._fan_out(\n"
            "        'scrub-read',\n"
            "        [(0, [1])],\n"
            "    )\n"
        )
        assert set(extract_caller_verbs([("m.py", src)])) == {"scrub-read"}

    def test_crash_points(self):
        assert extract_crash_points(NODE_SRC) == ["a-before-x", "a-before-y"]


class TestChecks:
    def _tree(self, tmp_path: Path, *, node_src=NODE_SRC, client_src="",
              tests_src=""):
        (tmp_path / "cluster").mkdir(parents=True)
        (tmp_path / "cluster" / "node.py").write_text(node_src)
        (tmp_path / "cluster" / "client.py").write_text(client_src)
        tests = tmp_path.parent / "tests"
        tests.mkdir(exist_ok=True)
        (tests / "test_x.py").write_text(tests_src)
        return tmp_path, tests

    def test_caller_without_handler_is_pro401(self, tmp_path: Path):
        root, tests = self._tree(
            tmp_path / "src" / "repro",
            client_src="async def f(c):\n    await c.request('pingg', {})\n",
            tests_src="X = ['a-before-x', 'a-before-y', 'ping', 'put']\n",
        )
        fs = check_protocol(root, tests)
        assert [f.code for f in fs if f.symbol == "pingg"] == ["PRO401"]

    def test_handler_without_caller_is_pro402(self, tmp_path: Path):
        root, tests = self._tree(
            tmp_path / "src" / "repro",
            client_src="async def f(c):\n    await c.request('ping', {})\n",
            tests_src="X = ['a-before-x', 'a-before-y']\n",
        )
        fs = check_protocol(root, tests)
        assert [f.symbol for f in fs if f.code == "PRO402"] == ["put"]

    def test_test_only_caller_keeps_handler_alive(self, tmp_path: Path):
        # `fault`-style verbs exist for the harness: a tests/-side
        # caller is enough to keep PRO402 quiet ...
        root, tests = self._tree(
            tmp_path / "src" / "repro",
            client_src="async def f(c):\n    await c.request('ping', {})\n",
            tests_src=(
                "async def g(c):\n    await c.request('put', {})\n"
                "X = ['a-before-x', 'a-before-y']\n"
            ),
        )
        assert not [f for f in check_protocol(root, tests) if f.code == "PRO402"]

    def test_test_only_caller_does_not_satisfy_pro401(self, tmp_path: Path):
        # ... but a tests/-side caller of an unhandled verb is still a
        # bug in the test, not a production path -- PRO401 only looks
        # at src callers, so no finding and no false comfort either.
        root, tests = self._tree(
            tmp_path / "src" / "repro",
            client_src="async def f(c):\n    await c.request('ping', {})\n"
                       "async def g(c):\n    await c.request('put', {})\n",
            tests_src=(
                "async def h(c):\n    await c.request('nope', {})\n"
                "X = ['a-before-x', 'a-before-y']\n"
            ),
        )
        assert not [f for f in check_protocol(root, tests) if f.code == "PRO401"]

    def test_unswept_crash_point_is_pro403(self, tmp_path: Path):
        root, tests = self._tree(
            tmp_path / "src" / "repro",
            client_src=(
                "async def f(c):\n"
                "    await c.request('ping', {})\n"
                "    await c.request('put', {})\n"
            ),
            tests_src="X = ['a-before-x']\n",  # a-before-y never armed
        )
        fs = check_protocol(root, tests)
        assert [f.symbol for f in fs if f.code == "PRO403"] == ["a-before-y"]


class TestLiveTree:
    def test_protocol_surface_is_closed(self):
        assert check_protocol() == []

    def test_every_crash_point_is_declared_and_swept(self):
        from repro.cluster.node import NodeCrashPlan

        src = Path(
            __import__("repro.cluster.node", fromlist=["__file__"]).__file__
        ).read_text()
        assert tuple(extract_crash_points(src)) == NodeCrashPlan.POINTS
        # 2 migration points (release: a migrated strip lands by put)
        # + 2 delta-write points (xor)
        assert NodeCrashPlan.POINTS == (
            "release-before-drop", "release-before-reply",
            "xor-before-apply", "xor-before-reply",
        )
