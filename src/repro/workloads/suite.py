"""The 19-benchmark evaluation suite (paper Table 1).

Every benchmark from the Regex and ANMLZoo suites used in the paper's
evaluation is regenerated here as a seeded synthetic workload targeting
the paper's structural statistics — state count, connected components,
symbol-range shape, and half-core footprint.  The registry records the
paper's Table 1 row next to each generator so the Table 1 benchmark can
print paper-vs-generated side by side.

Scaling: ``scale`` multiplies the number of connected components (rule
groups / machines / trees) while keeping the per-component structure
intact.  Flow counts after connected-component merging equal the
*maximum units per component*, which is scale-invariant — so PAP
speedup behaviour is preserved at reduced build cost.  Benchmarks with
intrinsically few components (Levenshtein, EntityResolution) scale
their per-component content instead and never drop below the paper's
component count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.automata.anml import Automaton
from repro.errors import ConfigurationError
from repro.workloads import regexgen
from repro.workloads.entityres import entityresolution_benchmark, name_trace
from repro.workloads.fermi import fermi_benchmark, hit_trace
from repro.workloads.hamming import hamming_benchmark
from repro.workloads.levenshtein import levenshtein_benchmark
from repro.workloads.protomata import protein_trace, protomata_benchmark
from repro.workloads.randomforest import feature_trace, randomforest_benchmark
from repro.workloads.spm import spm_benchmark, transaction_trace
from repro.workloads.tracegen import (
    DEFAULT_PM,
    embed_matches,
    mixed_trace,
    pm_trace,
)

TraceFactory = Callable[[int, int], bytes]


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table 1."""

    states: int
    symbol_range: int
    components: int
    half_cores: int

    @property
    def segments_one_rank(self) -> int:
        return 16 // self.half_cores

    @property
    def segments_four_ranks(self) -> int:
        return 64 // self.half_cores


@dataclass
class BenchmarkInstance:
    """A generated benchmark: automaton, trace factory, paper row."""

    name: str
    automaton: Automaton
    trace: TraceFactory
    paper: PaperRow

    @property
    def half_cores(self) -> int:
        return self.paper.half_cores


def _scaled(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(count * scale))


# -- Regex-suite generators ---------------------------------------------------


def _regex_benchmark(
    name: str,
    paper: PaperRow,
    params: regexgen.RegexSuiteParams,
    *,
    seed: int,
) -> BenchmarkInstance:
    automaton, patterns = regexgen.generate_ruleset(
        params, seed=seed, name=name
    )
    snippets = regexgen.literal_snippets(patterns, random.Random(seed))

    def trace(length: int, trace_seed: int) -> bytes:
        base = pm_trace(automaton, length, pm=DEFAULT_PM, seed=trace_seed)
        return embed_matches(
            base, snippets, every=max(64, length // 200), seed=trace_seed
        )

    return BenchmarkInstance(
        name=name, automaton=automaton, trace=trace, paper=paper
    )


def _dotstar(
    name: str,
    paper: PaperRow,
    fraction: float,
    groups: int,
    per_group: int,
    scale: float,
    seed: int,
    class_fraction: float = 0.0,
) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(groups, scale),
        patterns_per_group=per_group,
        dotstar_fraction=fraction,
        class_fraction=class_fraction,
    )
    return _regex_benchmark(name, paper, params, seed=seed)


# -- builders, one per Table 1 row -------------------------------------------


def build_dotstar03(scale: float, seed: int) -> BenchmarkInstance:
    return _dotstar(
        "Dotstar03", PaperRow(11124, 163, 56, 1), 0.03, 56, 15, scale, seed
    )


def build_dotstar06(scale: float, seed: int) -> BenchmarkInstance:
    return _dotstar(
        "Dotstar06", PaperRow(11598, 315, 54, 1), 0.06, 54, 15, scale, seed
    )


def build_dotstar09(scale: float, seed: int) -> BenchmarkInstance:
    return _dotstar(
        "Dotstar09", PaperRow(11229, 314, 51, 1), 0.09, 51, 15, scale, seed
    )


def build_ranges05(scale: float, seed: int) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(63, scale),
        patterns_per_group=13,
        class_fraction=0.5,
    )
    return _regex_benchmark(
        "Ranges05", PaperRow(11596, 1, 63, 1), params, seed=seed
    )


def build_ranges1(scale: float, seed: int) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(57, scale),
        patterns_per_group=14,
        class_fraction=1.0,
    )
    return _regex_benchmark(
        "Ranges1", PaperRow(11418, 1, 57, 1), params, seed=seed
    )


def build_exactmatch(scale: float, seed: int) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(53, scale), patterns_per_group=15
    )
    return _regex_benchmark(
        "ExactMatch", PaperRow(11270, 1, 53, 1), params, seed=seed
    )


def build_bro217(scale: float, seed: int) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(59, scale),
        patterns_per_group=4,
        min_length=5,
        max_length=12,
        class_fraction=0.1,
    )
    return _regex_benchmark(
        "Bro217", PaperRow(1893, 6, 59, 1), params, seed=seed
    )


def build_tcp(scale: float, seed: int) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(57, scale),
        patterns_per_group=17,
        class_fraction=0.35,
        dotstar_fraction=0.05,
    )
    return _regex_benchmark(
        "TCP", PaperRow(13834, 550, 57, 1), params, seed=seed
    )


def build_poweren1(scale: float, seed: int) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(62, scale),
        patterns_per_group=14,
        class_fraction=0.4,
        dotstar_fraction=0.04,
    )
    return _regex_benchmark(
        "PowerEN1", PaperRow(12195, 466, 62, 1), params, seed=seed
    )


def build_dotstar(scale: float, seed: int) -> BenchmarkInstance:
    return _dotstar(
        "Dotstar",
        PaperRow(38951, 600, 90, 2),
        0.12,
        90,
        31,
        scale,
        seed,
        class_fraction=0.1,
    )


def build_snort(scale: float, seed: int) -> BenchmarkInstance:
    params = regexgen.RegexSuiteParams(
        num_groups=_scaled(90, scale),
        patterns_per_group=27,
        class_fraction=0.2,
        dotstar_fraction=0.03,
    )
    return _regex_benchmark(
        "Snort", PaperRow(34480, 792, 90, 3), params, seed=seed
    )


def build_clamav(scale: float, seed: int) -> BenchmarkInstance:
    """ClamAV: long virus signatures with bounded ``.{n}`` gaps, one
    component per signature (the paper skips prefix merging here)."""
    rng = random.Random(seed)
    num_signatures = _scaled(515, scale)
    patterns = []
    for _ in range(num_signatures):
        pieces = []
        for _ in range(rng.randint(3, 5)):
            pieces.append(regexgen._random_literal(rng, rng.randint(14, 22)))
        gap = ".{%d}" % rng.randint(4, 8)
        patterns.append(gap.join(pieces))
    from repro.regex.ruleset import compile_ruleset

    automaton, _ = compile_ruleset(
        patterns, name="ClamAV", prefix_merge=False
    )
    snippets = []  # gap patterns have no plain-literal snippet

    def trace(length: int, trace_seed: int) -> bytes:
        return pm_trace(automaton, length, pm=DEFAULT_PM, seed=trace_seed)

    del snippets
    return BenchmarkInstance(
        name="ClamAV",
        automaton=automaton,
        trace=trace,
        paper=PaperRow(49538, 5452, 515, 3),
    )


def build_fermi(scale: float, seed: int) -> BenchmarkInstance:
    automaton, _centers = fermi_benchmark(
        num_trajectories=_scaled(2399, scale), layers=16, seed=seed
    )
    return BenchmarkInstance(
        name="Fermi",
        automaton=automaton,
        trace=lambda length, trace_seed: hit_trace(length, seed=trace_seed),
        paper=PaperRow(40783, 30027, 2399, 2),
    )


def build_randomforest(scale: float, seed: int) -> BenchmarkInstance:
    automaton = randomforest_benchmark(
        num_trees=_scaled(1661, scale), depth=5, leaves_per_tree=5, seed=seed
    )
    return BenchmarkInstance(
        name="RandomForest",
        automaton=automaton,
        trace=lambda length, trace_seed: feature_trace(
            length, seed=trace_seed
        ),
        paper=PaperRow(33220, 1616, 1661, 2),
    )


def build_spm(scale: float, seed: int) -> BenchmarkInstance:
    automaton, items = spm_benchmark(
        num_patterns=_scaled(5025, scale), seed=seed
    )
    return BenchmarkInstance(
        name="SPM",
        automaton=automaton,
        trace=lambda length, trace_seed: transaction_trace(
            items, length, seed=trace_seed
        ),
        paper=PaperRow(100500, 20100, 5025, 2),
    )


def build_hamming(scale: float, seed: int) -> BenchmarkInstance:
    automaton, references = hamming_benchmark(
        num_machines=_scaled(49, scale),
        pattern_length=24,
        distance=3,
        seed=seed,
    )

    def trace(length: int, trace_seed: int) -> bytes:
        base = mixed_trace(b"ACGT", length, noise=0.05, seed=trace_seed)
        return embed_matches(
            base, references, every=max(96, length // 150), seed=trace_seed
        )

    return BenchmarkInstance(
        name="Hamming",
        automaton=automaton,
        trace=trace,
        paper=PaperRow(11254, 8151, 49, 2),
    )


def build_protomata(scale: float, seed: int) -> BenchmarkInstance:
    automaton, _motifs = protomata_benchmark(
        num_groups=_scaled(513, scale), motifs_per_group=4, seed=seed
    )
    return BenchmarkInstance(
        name="Protomata",
        automaton=automaton,
        trace=lambda length, trace_seed: protein_trace(
            length, seed=trace_seed
        ),
        paper=PaperRow(38251, 667, 513, 2),
    )


def build_levenshtein(scale: float, seed: int) -> BenchmarkInstance:
    automaton, references = levenshtein_benchmark(
        num_components=4,
        patterns_per_component=max(1, round(3 * max(scale, 0.34))),
        pattern_length=24,
        distance=3,
        seed=seed,
    )

    def trace(length: int, trace_seed: int) -> bytes:
        base = mixed_trace(b"ACGT", length, noise=0.05, seed=trace_seed)
        return embed_matches(
            base, references, every=max(96, length // 100), seed=trace_seed
        )

    return BenchmarkInstance(
        name="Levenshtein",
        automaton=automaton,
        trace=trace,
        paper=PaperRow(2660, 2090, 4, 3),
    )


def build_entityresolution(scale: float, seed: int) -> BenchmarkInstance:
    automaton, entities = entityresolution_benchmark(
        num_entities=_scaled(100, scale, minimum=10),
        entities_per_component=max(2, _scaled(20, scale)),
        seed=seed,
    )
    return BenchmarkInstance(
        name="EntityResolution",
        automaton=automaton,
        trace=lambda length, trace_seed: name_trace(
            entities, length, seed=trace_seed
        ),
        paper=PaperRow(5689, 1515, 5, 3),
    )


BUILDERS: dict[str, Callable[[float, int], BenchmarkInstance]] = {
    "Dotstar03": build_dotstar03,
    "Dotstar06": build_dotstar06,
    "Dotstar09": build_dotstar09,
    "Ranges05": build_ranges05,
    "Ranges1": build_ranges1,
    "ExactMatch": build_exactmatch,
    "Bro217": build_bro217,
    "TCP": build_tcp,
    "PowerEN1": build_poweren1,
    "Fermi": build_fermi,
    "RandomForest": build_randomforest,
    "Dotstar": build_dotstar,
    "SPM": build_spm,
    "Hamming": build_hamming,
    "Protomata": build_protomata,
    "Levenshtein": build_levenshtein,
    "EntityResolution": build_entityresolution,
    "Snort": build_snort,
    "ClamAV": build_clamav,
}

BENCHMARK_NAMES: tuple[str, ...] = tuple(BUILDERS)

REGEX_SUITE = (
    "Dotstar03",
    "Dotstar06",
    "Dotstar09",
    "Ranges05",
    "Ranges1",
    "ExactMatch",
    "Bro217",
    "TCP",
    "PowerEN1",
)

ANMLZOO_SUITE = tuple(n for n in BENCHMARK_NAMES if n not in REGEX_SUITE)


def build_benchmark(
    name: str, *, scale: float = 0.25, seed: int = 0
) -> BenchmarkInstance:
    """Build one named benchmark at the given scale (a positive
    fraction of the paper's state counts)."""
    if name not in BUILDERS:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(BUILDERS)}"
        )
    if not scale > 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    return BUILDERS[name](scale, seed)


def build_suite(
    names: tuple[str, ...] = BENCHMARK_NAMES,
    *,
    scale: float = 0.25,
    seed: int = 0,
) -> Iterator[BenchmarkInstance]:
    """Yield benchmark instances one at a time (they can be large)."""
    for name in names:
        yield build_benchmark(name, scale=scale, seed=seed)
