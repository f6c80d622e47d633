"""Content-keyed on-disk cache for experiment work units.

A cached row is valid only while everything that could change its value
is unchanged, so the key digests three ingredients:

* the work-unit identity (experiment id, row index, row key, scale,
  and the experiment's parameters with their defaults filled in — a
  re-seeded chaos row is a different entry from the canonical one),
* the :class:`~repro.hw.costs.CostModel` default calibration
  (re-calibrating a single constant invalidates every row), and
* a fingerprint of every ``*.py`` file under ``src/repro`` (any code
  change invalidates everything — conservative on purpose: a docs-only
  change keeps the whole cache warm, a simulator change keeps none of
  it).

Entries are tiny JSON files (``<root>/<k[:2]>/<key>.json``) written
atomically, so concurrent runs sharing a cache directory can only ever
observe complete entries.  Corrupt or unreadable entries count as
misses and are recomputed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Tuple

from repro.hw.costs import DEFAULT_COSTS, CostModel

#: Bump to orphan every existing entry (e.g. a payload-format change).
CACHE_SCHEMA = 1

#: Default cache root; override with $PVM_BENCH_CACHE_DIR or --cache-dir.
DEFAULT_CACHE_DIR = Path(
    os.environ.get("PVM_BENCH_CACHE_DIR")
    or Path(os.environ.get("XDG_CACHE_HOME") or "~/.cache").expanduser()
    / "pvm-bench"
)


@lru_cache(maxsize=None)
def source_tree_fingerprint(root: Optional[str] = None) -> str:
    """Digest of every ``*.py`` under ``src/repro`` (path + content).

    Memoized per process: sources cannot change under a running
    invocation, and hashing ~150 files costs a few milliseconds we do
    not want to pay once per work unit.
    """
    tree = Path(root) if root else Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(tree.rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def cost_model_fingerprint(costs: CostModel = DEFAULT_COSTS) -> str:
    """Digest of a cost model's full constant set."""
    payload = json.dumps(dataclasses.asdict(costs), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """On-disk row cache keyed by work-unit content (see module doc)."""

    def __init__(self, root: "Optional[Path | str]" = None) -> None:
        self.root = Path(root) if root else DEFAULT_CACHE_DIR
        self.stats = CacheStats()

    def key_for(self, unit) -> str:
        """The content key of one :class:`~repro.bench.parallel.WorkUnit`."""
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "exp_id": unit.exp_id,
                "row_index": unit.row_index,
                "row_key": unit.row_key,
                "scale": unit.scale,
                "params": unit.params,
                "costs": cost_model_fingerprint(),
                "tree": source_tree_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, unit) -> Optional[Tuple[str, List[float]]]:
        """The cached ``(label, values)`` row, or None on a miss."""
        path = self._path(self.key_for(unit))
        try:
            payload = json.loads(path.read_text())
            row = (str(payload["label"]),
                   [float(v) for v in payload["values"]])
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return row

    def put(self, unit, row: Tuple[str, List[float]]) -> None:
        """Store one computed row (atomic rename; last writer wins)."""
        label, values = row
        path = self._path(self.key_for(unit))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"label": label, "values": list(values)}))
        os.replace(tmp, path)
