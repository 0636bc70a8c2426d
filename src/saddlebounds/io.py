"""Manifest serialization for double saddle-point systems.

Two on-disk forms are supported, both driven by a JSON manifest:

* ``matrix-market`` -- the manifest names five ``.mtx`` files (one per
  block) stored next to it;
* ``inline`` -- the manifest embeds the five blocks as dense arrays, which
  is convenient for tiny systems and for tests.

Values are read back as IEEE-754 doubles; bit exactness across writers is
not promised.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.io

from .errors import StructuralError
from .system import DoubleSaddleSystem, _dense

SCHEMA_VERSION = 1
BLOCK_NAMES = ("A", "B", "C", "D", "E")


def save_manifest(
    system: DoubleSaddleSystem,
    out_dir: str | Path,
    name: str = "system",
    inline: bool = False,
) -> Path:
    """Write a system to ``out_dir`` and return the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n, m, p = system.dims
    manifest: dict = {"schema": SCHEMA_VERSION, "dims": [n, m, p]}

    if inline:
        manifest["format"] = "inline"
        manifest["blocks"] = {
            key: getattr(system, key).tolist() for key in BLOCK_NAMES
        }
    else:
        manifest["format"] = "matrix-market"
        blocks = {}
        for key in BLOCK_NAMES:
            fname = f"{name}_{key}.mtx"
            scipy.io.mmwrite(out_dir / fname, np.asarray(getattr(system, key)))
            blocks[key] = fname
        manifest["blocks"] = blocks

    manifest_path = out_dir / f"{name}.json"
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path


def load_manifest(path: str | Path) -> DoubleSaddleSystem:
    """Load a system from a JSON manifest (either on-disk form)."""
    path = Path(path)
    with open(path) as handle:
        manifest = json.load(handle)

    schema = manifest.get("schema")
    if schema != SCHEMA_VERSION:
        raise StructuralError(f"unsupported manifest schema {schema!r}")
    blocks = manifest.get("blocks")
    if not isinstance(blocks, dict) or set(blocks) != set(BLOCK_NAMES):
        raise StructuralError("manifest must define exactly the blocks A, B, C, D, E")

    fmt = manifest.get("format", "matrix-market")
    loaded = {}
    for key in BLOCK_NAMES:
        if fmt == "inline":
            loaded[key] = np.asarray(blocks[key], dtype=float)
        elif fmt == "matrix-market":
            # sparse reads are made dense by DoubleSaddleSystem
            loaded[key] = scipy.io.mmread(path.parent / blocks[key])
        else:
            raise StructuralError(f"unknown manifest format {fmt!r}")

    system = DoubleSaddleSystem(**loaded)
    dims = manifest.get("dims")
    if dims is not None and tuple(dims) != system.dims:
        raise StructuralError(
            f"manifest dims {tuple(dims)} disagree with block shapes {system.dims}"
        )
    return system


def load_spd_blocks(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load three user-supplied preconditioner blocks from a JSON manifest.

    The manifest maps ``"blocks"`` to a list of three ``.mtx`` file names
    (or inline dense arrays) ordered as (leading, first Schur, second Schur).
    """
    path = Path(path)
    with open(path) as handle:
        manifest = json.load(handle)
    entries = manifest.get("blocks")
    if not isinstance(entries, list) or len(entries) != 3:
        raise StructuralError("preconditioner manifest needs exactly 3 blocks")
    out = [
        _dense(scipy.io.mmread(path.parent / entry) if isinstance(entry, str) else entry)
        for entry in entries
    ]
    return out[0], out[1], out[2]
