"""Docs quote the benchmarks; they must not drift from them.

Every number ``docs/performance.md`` §6 and the "Suite regeneration"
section of ``EXPERIMENTS.md`` cite from ``BENCH_suite.json``'s
``runner`` block must appear in the text, rounded as printed, next to
the field it comes from.  The same holds for the MULT8 row of the
``multilevel`` block that §3 quotes and the mega-batch
``throughput_ratio`` figures from ``BENCH_megabatch.json`` that §4
quotes.
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


def _bench(name):
    return json.loads((ROOT / "benchmarks/perf" / name).read_text())


def _performance_section(heading):
    """A ``docs/performance.md`` section with its line breaks folded."""
    section = _section((ROOT / "docs/performance.md").read_text(), heading)
    return " ".join(section.split())


@pytest.fixture(scope="module")
def runner():
    return _bench("BENCH_suite.json")["runner"]


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


def test_performance_multilevel_section_quotes_mult8_row():
    section = _performance_section("## 3. The multilevel warm-start engine")
    (row,) = [
        row for row in _bench("BENCH_suite.json")["multilevel"]["results"]
        if row["circuit"] == "MULT8"
    ]
    multilevel, batched = row["multilevel"], row["batched"]
    assert (
        f"{multilevel['wall_s']:.4f} s with multilevel against "
        f"{batched['wall_s']:.4f} s batched" in section
    )
    assert f"runs {multilevel['coarse_iterations']} iterations" in section
    assert (
        f"d≤1 {multilevel['d_le_1']:.2f} vs {batched['d_le_1']:.2f} on MULT8"
        in section
    )


def test_performance_megabatch_section_quotes_throughput_ratios():
    section = _performance_section("## 4. Solver iteration cost and mega-batching")
    assert "`throughput_ratio`" in section
    for row in _bench("BENCH_megabatch.json")["results"]:
        jobs = f"{row['jobs']} job" + ("s" if row["jobs"] > 1 else "")
        quoted = f"{row['throughput_ratio']:.2f}×"
        assert (
            f"{jobs} {quoted}" in section or f"{jobs} **{quoted}**" in section
        ), f"§4 should quote {jobs} at {quoted}"
