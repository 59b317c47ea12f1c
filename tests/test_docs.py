"""Documentation consistency checks.

Docs drift is a bug like any other: these tests pin the human-facing
files to the code they describe.
"""

import pathlib

from repro.codes import available_codes

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestReadme:
    def test_exists_with_key_sections(self):
        text = read("README.md")
        for needle in ("Install", "Quickstart", "Architecture", "IPDPS 2020"):
            assert needle in text

    def test_mentions_every_example(self):
        text = read("README.md")
        # At least the headline examples are listed by path.
        for example in ("quickstart", "raid6_array_recovery", "scrub_silent_corruption"):
            assert example in text

    def test_quickstart_snippet_is_valid(self):
        """The README's core snippet must actually run."""
        import numpy as np

        from repro import LiberationOptimal

        code = LiberationOptimal(k=6)
        stripe = code.alloc_stripe()
        stripe[:6] = np.random.default_rng(0).integers(
            0, 2**64, stripe[:6].shape, dtype=np.uint64
        )
        code.encode(stripe)
        ref = stripe.copy()
        stripe[1] = 0
        stripe[4] = 0
        code.decode(stripe, erasures=[1, 4])
        assert np.array_equal(stripe[: code.n_cols], ref[: code.n_cols])
        assert code.encoding_xors() == 2 * code.p * (code.k - 1)


class TestUsageGuide:
    def test_lists_every_registered_code(self):
        text = read("docs/usage.md")
        for name in available_codes():
            assert name in text, name

    def test_interface_table_matches_api(self):
        from repro.codes.base import RAID6Code

        text = read("docs/usage.md")
        for method in ("alloc_stripe", "encode", "decode", "update", "verify", "with_k"):
            assert method in text
            assert hasattr(RAID6Code, method)


class TestDesignAndExperiments:
    def test_design_inventory_modules_exist(self):
        """Every `repro.x.y` module named in DESIGN.md must import."""
        import importlib
        import re

        text = read("DESIGN.md")
        for ref in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text))):
            try:
                importlib.import_module(ref)
            except ModuleNotFoundError:
                # A dotted class reference: the parent must import and
                # expose the final attribute.
                mod, _, attr = ref.rpartition(".")
                assert hasattr(importlib.import_module(mod), attr), ref

    def test_experiments_covers_every_figure(self):
        text = read("EXPERIMENTS.md")
        for fig in range(5, 14):
            assert f"Fig. {fig}" in text or f"Figs. {fig}" in text or f"–{fig}" in text

    def test_every_benchmark_file_referenced(self):
        design = read("DESIGN.md")
        for bench in sorted((ROOT / "benchmarks").glob("bench_fig*.py")):
            assert bench.name in design, bench.name

    def test_erratum_documented(self):
        assert "Erratum" in read("EXPERIMENTS.md")
        assert "erratum" in read("DESIGN.md").lower()


class TestAlgorithmsDoc:
    def test_key_claims_present(self):
        text = read("docs/algorithms.md")
        assert "2p(k-1)" in text.replace(" ", "") or "2p(k-1)" in text
        assert "common expression" in text.lower()
        assert "starting point" in text.lower()
