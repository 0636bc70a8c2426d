"""Manifest serialization for double saddle-point systems.

Two on-disk forms are supported, both driven by a JSON manifest:

* ``matrix-market`` -- the manifest names five ``.mtx`` files (one per
  block) stored next to it: coordinate format for a sparse block, array
  format for a dense one; a coordinate file loads as a sparse block;
* ``inline`` -- the manifest embeds the five blocks as dense arrays, which
  is convenient for tiny systems and for tests.

A manifest may also carry the :class:`~saddlebounds.precond.PoissonControlContext`
of a distributed-control system under ``context``: its ``beta`` and its mass
and stiffness matrices, stored like the blocks (``.mtx`` files, or dense
arrays in an inline manifest).

Values are read back as IEEE-754 doubles; bit exactness across writers is
not promised.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import StructuralError
from .precond import PoissonControlContext
from .system import DoubleSaddleSystem, _dense, _symmetric_input

SCHEMA_VERSION = 1
BLOCK_NAMES = ("A", "B", "C", "D", "E")
CONTEXT_MATRICES = ("mass", "stiffness")


def save_manifest(
    system: DoubleSaddleSystem,
    out_dir: str | Path,
    inline: bool = False,
    context: PoissonControlContext | None = None,
) -> Path:
    """Write a system, and its distributed-control ``context`` when given,
    to ``out_dir`` as ``system.json`` (with ``system_<key>.mtx`` files
    unless ``inline``) and return the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n, m, p = system.dims
    manifest: dict = {"schema": SCHEMA_VERSION, "dims": [n, m, p],
                      "format": "inline" if inline else "matrix-market"}

    def stored(key, matrix):
        if inline:
            return _dense(matrix).tolist()
        fname = f"system_{key}.mtx"
        _matrix_market().mmwrite(out_dir / fname, matrix)
        return fname

    manifest["blocks"] = {key: stored(key, getattr(system, key)) for key in BLOCK_NAMES}
    if context is not None:
        manifest["context"] = {"beta": float(context.beta), **{
            key: stored(key, getattr(context, key)) for key in CONTEXT_MATRICES}}

    manifest_path = out_dir / "system.json"
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path


def _read_manifest(path: Path) -> dict:
    """The JSON object a manifest file holds; :class:`StructuralError`
    naming the file when it is not valid JSON or not an object."""
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise StructuralError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StructuralError(
            f"manifest {path} must hold a JSON object, got {type(manifest).__name__}")
    return manifest


def _inline_block(entry, path: Path, label: str) -> np.ndarray:
    """A block written out in a manifest, as a 2-d float array;
    :class:`StructuralError` naming the file and block when an entry is not
    a number, the rows are ragged or the block is not a list of rows."""
    try:
        block = np.asarray(entry, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(
            f"manifest {path}: {label} is not an array of numbers") from exc
    if block.ndim != 2:
        raise StructuralError(
            f"manifest {path}: {label} must be a 2-d array, got {block.ndim}-d")
    return block


def _matrix_market():
    """``scipy.io``, imported on first use: loading it costs every process
    tens of milliseconds and more than a megabyte of resident memory, and
    only Matrix Market files need it."""
    import scipy.io

    return scipy.io


def _read_mtx(path: Path):
    """A Matrix Market file as a matrix; :class:`StructuralError` naming
    the file when it is not one."""
    try:
        return _matrix_market().mmread(path)
    except ValueError as exc:
        raise StructuralError(f"{path} is not a Matrix Market file: {exc}") from exc


def load_manifest(path: str | Path) -> DoubleSaddleSystem:
    """Load a system from a JSON manifest (either on-disk form); a file
    that is not a manifest raises :class:`StructuralError` naming it."""
    return load_problem(path)[0]


def load_problem(
    path: str | Path,
) -> tuple[DoubleSaddleSystem, PoissonControlContext | None]:
    """Load a system and its distributed-control context (``None`` when the
    manifest carries none) from a JSON manifest.

    A file that is not a manifest raises :class:`StructuralError` naming
    it.  The context is rebuilt through :class:`PoissonControlContext`,
    which checks it; :func:`~saddlebounds.precond.build_approx` checks that
    it fits the system where it is used.
    """
    path = Path(path)
    manifest = _read_manifest(path)

    schema = manifest.get("schema")
    if schema != SCHEMA_VERSION:
        raise StructuralError(f"unsupported manifest schema {schema!r}")
    blocks = manifest.get("blocks")
    if not isinstance(blocks, dict) or set(blocks) != set(BLOCK_NAMES):
        raise StructuralError("manifest must define exactly the blocks A, B, C, D, E")

    fmt = manifest.get("format", "matrix-market")
    if fmt not in ("inline", "matrix-market"):
        raise StructuralError(f"unknown manifest format {fmt!r}")

    def loaded(entry, label):
        if fmt == "inline":
            return _inline_block(entry, path, label)
        if not isinstance(entry, str):
            raise StructuralError(
                f"manifest {path}: {label} must name a Matrix Market file, "
                f"got {type(entry).__name__}")
        return _read_mtx(path.parent / entry)

    system = DoubleSaddleSystem(**{key: loaded(blocks[key], "block " + key)
                                   for key in BLOCK_NAMES})
    dims = manifest.get("dims")
    if dims is not None and dims != list(system.dims):
        raise StructuralError(
            f"manifest dims {dims} disagree with block shapes {system.dims}"
        )

    entry = manifest.get("context")
    if entry is None:
        return system, None
    if not isinstance(entry, dict) or set(entry) != {"beta", *CONTEXT_MATRICES}:
        raise StructuralError(
            f"manifest {path}: context must define exactly beta, mass and stiffness")
    beta = entry["beta"]
    if isinstance(beta, bool) or not isinstance(beta, (int, float)):
        raise StructuralError(f"manifest {path}: context beta must be a number")
    return system, PoissonControlContext(
        beta=float(beta),
        **{key: loaded(entry[key], "context " + key) for key in CONTEXT_MATRICES})


def load_spd_blocks(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load three user-supplied preconditioner blocks from a JSON manifest.

    The manifest maps ``"blocks"`` to a list of three ``.mtx`` file names
    (or inline dense arrays) ordered as (leading, first Schur, second Schur).
    Each is checked like a system block (as ``user block <i>``), dense; a
    file that is not such a manifest raises :class:`StructuralError`
    naming it.
    """
    path = Path(path)
    entries = _read_manifest(path).get("blocks")
    if not isinstance(entries, list) or len(entries) != 3:
        raise StructuralError("preconditioner manifest needs exactly 3 blocks")
    blocks = [_dense(_read_mtx(path.parent / e) if isinstance(e, str)
                     else _inline_block(e, path, f"user block {i}"))
              for i, e in enumerate(entries)]
    return tuple(_symmetric_input(b, f"user block {i}") for i, b in enumerate(blocks))
