"""File and directory name generation.

Produces the naming patterns the paper observes in the wild (§4.1.3):
domain-specific extensions dominating some communities, ``result.1`` /
``result.2`` checkpoint series "named with an increasing order or
timestamp", a persistent no-extension population (~16% of files), source
trees, and a generic tail of images/text/logs.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.scan.extensions import NO_EXTENSION
from repro.synth.domains import DomainSpec
from repro.synth.languages import source_extension_weights

#: Generic data-file extensions present in every domain's long tail, with
#: rough global weights — this pool plus "no extension" is what Figure 10
#: aggregates into its dominant *other*/*no extension* buckets.
GENERIC_EXTENSIONS: tuple[tuple[str, float], ...] = (
    ("txt", 2.5),
    ("dat", 2.2),
    ("log", 2.0),
    ("png", 1.6),
    ("o", 1.5),
    ("gz", 1.4),
    ("out", 1.2),
    ("h5", 1.0),
    ("xml", 0.9),
    ("bin", 0.8),
    ("ppm", 0.7),
    ("nc", 0.7),
    ("mat", 0.6),
    ("tar", 0.5),
    ("inp", 0.5),
    ("csv", 0.4),
    ("json", 0.3),
    ("vtk", 0.3),
    ("pdf", 0.2),
    ("err", 0.2),
)

#: Sentinel used in weight tables for checkpoint-series names (result.1,
#: result.2, ... — the suffix is the sequence number, so the observed
#: "extension" is numeric and uncategorizable, exactly as the paper notes).
SERIES = "<series>"

#: Share of files with no extension (Figure 10 reports ~16% overall).
NO_EXT_WEIGHT = 16.0
#: Share of checkpoint-series files.
SERIES_WEIGHT = 4.0
#: Share of source-code files in a project tree.
SOURCE_WEIGHT = 9.0

_STEMS = (
    "run", "output", "state", "restart", "frame", "step", "field",
    "mesh", "grid", "dump", "result", "sample", "config", "trace",
    "model", "input", "snap", "prof", "diag", "energy",
)

_NOEXT_NAMES = (
    "README", "Makefile", "LICENSE", "INSTALL", "NOTES", "core",
    "hostfile", "batchlog", "params", "OUTCAR", "CONTCAR", "POTCAR",
)

_DIR_NAMES = (
    "run", "data", "output", "analysis", "restart", "scratch", "results",
    "case", "exp", "batch", "prod", "test", "viz", "post", "inputs",
)


def normalized_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(p=probs)`` rebuilds on every call, once:
    ``cdf.searchsorted(rng.random(n), side="right")`` draws the same stream
    and indices as ``rng.choice(len(probs), size=n, p=probs)``."""
    probs = np.asarray(probs, dtype=np.float64)
    if not (np.isfinite(probs).all() and (probs >= 0).all()):
        raise ValueError("probabilities must be finite and non-negative")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    if cdf[-1] != 1.0:
        raise ValueError("probabilities must not all be zero")
    return cdf


@functools.cache
def _extension_table(spec: DomainSpec) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """One domain's weighted name mix: its extensions, their probabilities
    and the CDF the samplers search — built once per domain and shared,
    read-only, by every project's :class:`ExtensionSampler`.

    The weight table combines (1) the domain's Table 2 top-three extensions
    at their published popularity, (2) the source-code mix biased toward the
    domain's Table 1 language pair, (3) checkpoint series, (4) no-extension
    names, and (5) the generic pool filling the remainder.
    """
    weights: dict[str, float] = {}
    top_total = 0.0
    for ext, pct in spec.ext_top:
        weights[ext] = weights.get(ext, 0.0) + pct
        top_total += pct
    weights[NO_EXTENSION] = NO_EXT_WEIGHT
    weights[SERIES] = SERIES_WEIGHT
    source = source_extension_weights(spec.languages)
    source_total = sum(source.values())
    for ext, w in source.items():
        weights[ext] = weights.get(ext, 0.0) + SOURCE_WEIGHT * w / source_total
    remainder = max(
        100.0 - top_total - NO_EXT_WEIGHT - SERIES_WEIGHT - SOURCE_WEIGHT, 5.0
    )
    generic_total = sum(w for _, w in GENERIC_EXTENSIONS)
    for ext, w in GENERIC_EXTENSIONS:
        weights[ext] = weights.get(ext, 0.0) + remainder * w / generic_total
    extensions = tuple(weights)
    probs = np.array([weights[e] for e in extensions], dtype=np.float64)
    probs = probs / probs.sum()
    cdf = normalized_cdf(probs)
    probs.setflags(write=False)
    cdf.setflags(write=False)
    return extensions, probs, cdf


class ExtensionSampler:
    """Per-project weighted extension/name sampler over its domain's
    :func:`_extension_table`, drawing from the project's own RNG."""

    def __init__(self, spec: DomainSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.extensions, self.probs, self._cdf = _extension_table(spec)
        self._series_counter = 0
        self._name_counter = 0

    def sample_names(self, count: int) -> list[str]:
        """Generate ``count`` distinct leaf names following the domain mix."""
        if count <= 0:
            return []
        picks = self._cdf.searchsorted(self.rng.random(count), side="right")
        stems = self.rng.integers(0, len(_STEMS), count)
        extensions = self.extensions
        uniq, series = self._name_counter, self._series_counter
        names: list[str] = []
        for pick, stem_i in zip(picks.tolist(), stems.tolist()):
            uniq += 1
            ext = extensions[pick]
            if ext == SERIES:
                series += 1
                names.append(f"{_STEMS[stem_i]}.{series}")
            elif ext == NO_EXTENSION:
                names.append(f"{_NOEXT_NAMES[uniq % len(_NOEXT_NAMES)]}_{uniq:06d}")
            else:
                names.append(f"{_STEMS[stem_i]}_{uniq:06d}.{ext}")
        self._name_counter, self._series_counter = uniq, series
        return names

    def sample_dir_name(self, ordinal: int) -> str:
        base = _DIR_NAMES[int(self.rng.integers(len(_DIR_NAMES)))]
        return f"{base}{ordinal:04d}"
