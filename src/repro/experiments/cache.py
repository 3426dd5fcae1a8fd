"""Content-addressed on-disk cache for sweep cells.

A figure sweep is a grid of independent (parameter value, policy) cells,
each fully determined by its network spec, policy configuration, seed
list, horizon, and the simulation code itself.  This module caches each
cell's aggregated :class:`~repro.experiments.runner.SweepPoint` under a
SHA-256 key of exactly those inputs, so re-running a figure (or a sweep
sharing cells with a previous one) skips the simulation entirely.

Key properties:

* **Content-addressed** — the key hashes a canonical JSON encoding of the
  spec (recursively, through its frozen dataclass components), the policy
  configuration, the seed tuple, the interval count, the RNG discipline,
  the reporting groups, and :func:`engine_version` (a hash of the engine
  source files).  Changing any of these — a reliability, a Glauber
  constant, a seed, or the simulator code — changes the key, so stale
  hits are impossible by construction.
* **Exact** — cached floats round-trip through JSON bit-for-bit (Python
  serializes floats with shortest-roundtrip ``repr``), so a warm-cache
  sweep reproduces the cold run's :class:`SweepPoint` values exactly.
* **Conservative** — anything the fingerprinters do not recognize (a
  custom policy class, a spec carrying non-dataclass state) yields no
  key, and the cell is simply recomputed every time.

The default location is ``.repro_cache/sweeps`` under the current
directory; the ``REPRO_SWEEP_CACHE`` environment variable overrides it
(set it to ``off`` to disable caching even where code requests it).

One semantic caveat, inherited from the grid-fused engine
(:mod:`repro.experiments.grid`): in the default ``rng="batch"`` mode a
cell's *sampled values* depend on the composition of the fused mega-batch
it ran in, so a cell recomputed inside a different sweep is a fresh
(statistically equivalent) sample rather than a bit-identical replay.
Warm hits of a previously stored cell are always bit-identical; only
cold recomputations in a new stack resample.  ``rng="sync"`` cells
are bit-identical either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..core import registry
from ..sim.rng import normalize_rng_mode
from .runner import SweepPoint

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SweepCache",
    "engine_version",
    "fingerprint",
    "policy_fingerprint",
    "resolve_cache",
    "warn_uncacheable",
]

#: Bump when the stored payload layout changes.
_SCHEMA = 1

#: Environment variable overriding the cache directory ("off" disables).
ENV_VAR = "REPRO_SWEEP_CACHE"

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = Path(".repro_cache") / "sweeps"

#: The ``repro`` package root; engine source paths are relative to it.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Source files whose content defines the simulation semantics a cached
#: value depends on: every Python source of the simulation layers
#: (policies, PHY, traffic, engines and kernels, topology), plus the
#: sweep modules that aggregate cells, in sorted order.  Derived from the
#: tree rather than listed, so a new or forgotten engine file can never
#: leave stale cells valid.
_ENGINE_SOURCES = tuple(
    sorted(
        [
            path.relative_to(_PACKAGE_ROOT).as_posix()
            for layer in ("core", "phy", "traffic", "sim", "topology")
            for path in (_PACKAGE_ROOT / layer).rglob("*.py")
        ]
        + ["experiments/grid.py", "experiments/runner.py", "experiments/cache.py"]
    )
)

_engine_version_cache: Optional[str] = None


def engine_version() -> str:
    """Hash of the engine source files (memoized per process).

    Editing any file in ``_ENGINE_SOURCES`` changes this value and hence
    every cache key, invalidating all previously stored cells.
    """
    global _engine_version_cache
    if _engine_version_cache is None:
        digest = hashlib.sha256()
        for rel in _ENGINE_SOURCES:
            digest.update(rel.encode("utf-8"))
            digest.update((_PACKAGE_ROOT / rel).read_bytes())
        _engine_version_cache = digest.hexdigest()[:16]
    return _engine_version_cache


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def fingerprint(obj: Any) -> Any:
    """A JSON-serializable, content-complete encoding of ``obj``.

    Frozen dataclasses (specs, channels, arrival processes, timings,
    biases, influence functions) encode recursively as tagged dicts;
    primitives and containers pass through.  Raises ``TypeError`` for
    anything else so callers can treat the object as uncacheable.

    This is :func:`repro.core.registry.encode_config_value` — the cache
    and the registry's policy config round-trip share one encoding, so a
    descriptor's ``to_config`` output is a cache fingerprint verbatim.
    """
    return registry.encode_config_value(obj)


def policy_fingerprint(policy: Any) -> Optional[dict]:
    """The configuration that determines a policy's behaviour, or ``None``.

    Delegates to the policy registry
    (:func:`repro.core.registry.policy_config`): the registered
    descriptor's ``to_config`` supplies the behaviour config, tagged
    with the instance's concrete class and name.  ``None`` means
    "unregistered policy" (or a config the encoder cannot serialize):
    the cell runs uncached rather than risking a collision between
    distinct configurations.
    """
    return registry.policy_config(policy)


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class SweepCache:
    """Directory-backed store of per-cell :class:`SweepPoint` payloads.

    Entries live at ``<root>/<key[:2]>/<key>.json``; writes are atomic
    (temp file + ``os.replace``), so concurrent sweeps sharing one cache
    directory can only ever observe complete entries.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # -- keys ----------------------------------------------------------
    def cell_key(
        self,
        *,
        spec: Any,
        policy: Any,
        seeds: Sequence[int],
        num_intervals: int,
        groups: Optional[Sequence[int]] = None,
        engine: str = "fused",
        rng: Optional[str] = None,
        topology=None,
    ) -> Optional[str]:
        """Content key for one sweep cell, or ``None`` if uncacheable.

        ``rng`` is the draw discipline the cell ran under
        (:data:`~repro.sim.rng.RNG_MODES`; ``None`` is ``"batch"``).
        The payload keeps its historical layout so every pre-existing
        key is preserved byte for byte: a boolean flag marks ``"sync"``
        cells, and only ``"free"`` cells add an ``"rng"`` field.  Shard count is deliberately *not* part of the
        key: a warm hit replays the stored point no matter how the stack
        was split, and cold recomputation in a different stack is a fresh
        sample of the same estimator (the sharded runner re-runs whole
        shards to keep resume bit-identical at a fixed shard count).
        ``topology`` — a :class:`~repro.topology.graph.CellTopology` the
        cell actually runs under (``None``, the single-domain default,
        omits the field so pre-existing keys are preserved) — keys
        multi-cell points distinctly via the topology's canonical
        fingerprint.
        """
        mode = normalize_rng_mode(rng)
        policy_fp = policy_fingerprint(policy)
        if policy_fp is None:
            return None
        try:
            spec_fp = fingerprint(spec)
        except TypeError:
            return None
        payload = {
            "schema": _SCHEMA,
            "code": engine_version(),
            "engine": str(engine),
            "sync_rng": mode == "sync",
            "spec": spec_fp,
            "policy": policy_fp,
            "seeds": [int(s) for s in seeds],
            "num_intervals": int(num_intervals),
            "groups": None if groups is None else [int(g) for g in groups],
        }
        if mode == "free":
            payload["rng"] = mode
        if topology is not None:
            payload["topology"] = topology.fingerprint()
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- reads / writes ------------------------------------------------
    def get(self, key: str) -> Optional[SweepPoint]:
        """The cached point for ``key`` (``parameter`` is NaN; the sweep
        assembler fills it), or ``None`` on a miss.

        A file that cannot decode into a valid payload — truncated or
        hand-edited JSON, a missing or ill-typed field from an old
        writer — is a *miss*, never an error: the entry is quarantined
        (renamed to ``<key>.corrupt``) with a single ``UserWarning`` so
        one bad byte on disk cannot kill a whole sweep, and the cell is
        simply recomputed and re-stored.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError:
            self.misses += 1
            return None
        except json.JSONDecodeError as exc:
            self.misses += 1
            self._quarantine(path, f"not valid JSON ({exc})")
            return None
        try:
            point = self._decode(data)
        except (KeyError, TypeError, ValueError) as exc:
            self.misses += 1
            self._quarantine(path, f"invalid payload ({type(exc).__name__}: {exc})")
            return None
        if point is None:  # schema mismatch: an old/new writer, not corruption
            self.misses += 1
            return None
        self.hits += 1
        return point

    @staticmethod
    def _decode(data: Any) -> Optional[SweepPoint]:
        """Validate a raw payload into a :class:`SweepPoint`.

        Raises ``KeyError``/``TypeError``/``ValueError`` for anything
        that is not a complete, well-typed schema-``_SCHEMA`` payload;
        returns ``None`` for a clean schema mismatch.
        """
        if not isinstance(data, dict):
            raise TypeError("payload is not a JSON object")
        if data.get("schema") != _SCHEMA:
            return None
        policy = data["policy"]
        if not isinstance(policy, str):
            raise TypeError("'policy' must be a string")
        group = data["group_deficiency"]
        if group is not None:
            if isinstance(group, (str, bytes)) or not isinstance(group, list):
                raise TypeError("'group_deficiency' must be a list or null")
            group = tuple(float(g) for g in group)
        return SweepPoint(
            parameter=float("nan"),
            policy=policy,
            total_deficiency=float(data["total_deficiency"]),
            deficiency_std=float(data["deficiency_std"]),
            group_deficiency=group,
            collisions=float(data["collisions"]),
            mean_overhead_us=float(data["mean_overhead_us"]),
        )

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside so it never poisons another read."""
        quarantine = path.with_suffix(".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:
            return  # a concurrent reader already moved or removed it
        self.quarantined += 1
        warnings.warn(
            f"sweep cache entry {path.name} is corrupt — {reason}; "
            f"quarantined to {quarantine.name} and treated as a miss "
            "(the cell will be recomputed and re-stored)",
            UserWarning,
            stacklevel=3,
        )

    def put(self, key: str, point: SweepPoint) -> None:
        """Store ``point`` under ``key`` (atomically; last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _SCHEMA,
            "policy": point.policy,
            "total_deficiency": point.total_deficiency,
            "deficiency_std": point.deficiency_std,
            "group_deficiency": (
                None
                if point.group_deficiency is None
                else list(point.group_deficiency)
            ),
            "collisions": point.collisions,
            "mean_overhead_us": point.mean_overhead_us,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1


def resolve_cache(
    cache: Union[None, bool, str, Path, SweepCache],
) -> Optional[SweepCache]:
    """Normalize a user-facing ``cache`` argument to a store (or ``None``).

    ``None``/``False`` disable caching; a :class:`SweepCache` passes
    through; a path string/Path opens that directory; ``True`` uses
    ``REPRO_SWEEP_CACHE`` (``off``/``0``/``none`` disable) or the default
    directory.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, SweepCache):
        return cache
    if cache is True:
        env = os.environ.get(ENV_VAR, "").strip()
        if env:
            if env.lower() in ("off", "0", "none", "disabled"):
                return None
            return SweepCache(env)
        return SweepCache(DEFAULT_CACHE_DIR)
    return SweepCache(cache)


def warn_uncacheable(labels: Sequence[str], stacklevel: int = 3) -> None:
    """One ``UserWarning`` per sweep naming policies that skip the cache.

    No-op for an empty ``labels``; shared by every sweep runner so the
    message (and its single-warning discipline) stays identical.
    """
    if not labels:
        return
    warnings.warn(
        f"skipping the sweep cache for {list(labels)}: the policy "
        "is not registered (or its spec/config cannot be "
        "fingerprinted), so these cells run uncached every time; "
        "register a PolicyDescriptor with repro.core.registry to "
        "make them cacheable",
        UserWarning,
        stacklevel=stacklevel,
    )
