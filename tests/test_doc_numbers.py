"""Docs quote the suite benchmark; they must not drift from it.

Every number ``docs/performance.md`` §6 and the "Suite regeneration"
section of ``EXPERIMENTS.md`` cite from ``BENCH_suite.json``'s
``runner`` block must appear in the text, rounded as printed, next to
the field it comes from.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: runner field -> how the docs print it.
QUOTED = {
    "sequential_cold_s": "{:.2f} s",
    "sequential_warm_s": "{:.2f} s",
    "cache_speedup": "{:.3f}×",
    "speedup": "{:.3f}×",
    "projected_speedup_4core": "{:.3f}×",
}


def _section(text, heading):
    """From ``heading`` up to the next level-2 heading."""
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


@pytest.fixture(scope="module")
def runner():
    bench = json.loads((ROOT / "benchmarks/perf/BENCH_suite.json").read_text())
    return bench["runner"]


@pytest.mark.parametrize("doc,heading", [
    ("docs/performance.md", "## 6. Measured numbers"),
    ("EXPERIMENTS.md", "### Suite regeneration"),
])
def test_docs_quote_bench_suite_runner_numbers(runner, doc, heading):
    section = _section((ROOT / doc).read_text(), heading)
    for field, fmt in QUOTED.items():
        printed = fmt.format(runner[field])
        assert printed in section, f"{doc}: {field} should read {printed}"
        assert f"`{field}`" in section, f"{doc}: cite the {field} field"
