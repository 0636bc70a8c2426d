import json
import subprocess
import sys

import numpy as np
import pytest

from saddlebounds import (
    distributed_context,
    load_manifest,
    load_problem,
    poisson_distributed,
    save_manifest,
)
from saddlebounds.errors import ParameterError, StructuralError
from saddlebounds.io import load_spd_blocks
from saddlebounds.report import analyze, solve
from saddlebounds.system import _dense

from helpers import random_valid_system


@pytest.mark.parametrize("inline", [False, True])
def test_manifest_round_trip(tmp_path, inline):
    rng = np.random.default_rng(21)
    system, _ = random_valid_system(rng, 6, 4, 2)
    manifest = save_manifest(system, tmp_path, inline=inline)
    back = load_manifest(manifest)
    for key in "ABCDE":
        assert np.allclose(getattr(back, key), getattr(system, key), atol=1e-14)
    for key in "ADE":
        assert np.array_equal(getattr(back, key), getattr(back, key).T)
    assert back.dims == system.dims


@pytest.mark.parametrize("inline", [False, True])
def test_sparse_manifest_round_trip(tmp_path, inline):
    system, _ = poisson_distributed(2**-3, 1e-3)
    manifest = save_manifest(system, tmp_path, inline=inline)
    back = load_manifest(manifest)
    assert back.dims == system.dims
    # coordinate Matrix Market files load as sparse blocks again
    assert back.is_sparse is not inline
    for key in "ABCDE":
        expected = getattr(system, key).toarray()
        assert np.allclose(_dense(getattr(back, key)), expected, rtol=1e-15, atol=0)
    if not inline:
        header = (tmp_path / "system_A.mtx").read_text().splitlines()[0]
        assert "coordinate" in header


@pytest.mark.parametrize("inline", [False, True])
def test_context_round_trip(tmp_path, inline):
    system, fem = poisson_distributed(2**-3, 1e-3)
    context = distributed_context(fem, 1e-3)
    back, back_context = load_problem(
        save_manifest(system, tmp_path, inline=inline, context=context))
    assert back_context.beta == context.beta
    for key in ("mass", "stiffness"):
        np.testing.assert_allclose(_dense(getattr(back_context, key)),
                                   getattr(context, key).toarray(), rtol=1e-15, atol=0)
    # the loaded context gives the published-recipe reference intervals again
    scenarios = ("prec-inexact",)
    direct = analyze(system, scenarios, precond="pearson-wathen", context=context)
    loaded = analyze(back, scenarios, precond="pearson-wathen", context=back_context)
    want, got = direct.scenarios[0], loaded.scenarios[0]
    assert got["reference_containment"]["status"] == "pass"
    np.testing.assert_allclose(got["reference_intervals"]["negative"]
                               + got["reference_intervals"]["positive"],
                               want["reference_intervals"]["negative"]
                               + want["reference_intervals"]["positive"], rtol=1e-12)


def test_manifest_context_of_another_size_fails_where_it_is_used(tmp_path):
    system, _ = poisson_distributed(2**-3, 1e-3)
    _, other = poisson_distributed(2**-2, 1e-3)
    manifest = save_manifest(system, tmp_path, context=distributed_context(other, 1e-3))
    back, context = load_problem(manifest)
    with pytest.raises(StructuralError, match="must be 49 x 49 to match block E"):
        solve(back, precond="pearson-wathen", context=context)


@pytest.mark.parametrize("inline", [False, True])
def test_manifest_without_context_loads_none(tmp_path, inline):
    rng = np.random.default_rng(25)
    system, _ = random_valid_system(rng, 4, 3, 2)
    manifest = save_manifest(system, tmp_path, inline=inline)
    assert "context" not in json.loads(manifest.read_text())
    back, context = load_problem(manifest)
    assert context is None and back.dims == system.dims


@pytest.mark.parametrize("edit, error, match", [
    (lambda c: c.pop("stiffness"), StructuralError, "exactly beta, mass and stiffness"),
    (lambda c: c.update(beta="1e-3"), StructuralError, "beta must be a number"),
    (lambda c: c.update(beta=True), StructuralError, "beta must be a number"),
    (lambda c: c.update(beta=-1.0), ParameterError, "beta must be finite and positive"),
    (lambda c: c.update(mass=[[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     StructuralError, "mass matrix"),
    (lambda c: c.update(stiffness="system_K.mtx"), StructuralError,
     "context stiffness is not an array of numbers"),
])
def test_manifest_context_checked_where_it_loads(tmp_path, edit, error, match):
    rng = np.random.default_rng(26)
    system, _ = random_valid_system(rng, 4, 3, 3)
    manifest = save_manifest(system, tmp_path, inline=True)
    data = json.loads(manifest.read_text())
    data["context"] = {"beta": 1e-3, "mass": np.eye(3).tolist(),
                       "stiffness": (2 * np.eye(3)).tolist()}
    edit(data["context"])
    manifest.write_text(json.dumps(data))
    with pytest.raises(error, match=match):
        load_problem(manifest)


def test_manifest_rejects_bad_dims(tmp_path):
    rng = np.random.default_rng(22)
    system, _ = random_valid_system(rng, 4, 3, 2)
    manifest = save_manifest(system, tmp_path, inline=True)
    data = json.loads(manifest.read_text())
    data["dims"] = [5, 3, 2]
    manifest.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="dims"):
        load_manifest(manifest)


def test_manifest_rejects_missing_block(tmp_path):
    rng = np.random.default_rng(23)
    system, _ = random_valid_system(rng, 4, 3, 2)
    manifest = save_manifest(system, tmp_path, inline=True)
    data = json.loads(manifest.read_text())
    del data["blocks"]["E"]
    manifest.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match="blocks"):
        load_manifest(manifest)


@pytest.mark.parametrize("entry", [5, None, [[1.0]]])
def test_manifest_rejects_a_block_file_that_is_not_a_name(tmp_path, entry):
    rng = np.random.default_rng(24)
    system, _ = random_valid_system(rng, 4, 3, 2)
    manifest = save_manifest(system, tmp_path)
    data = json.loads(manifest.read_text())
    data["blocks"]["A"] = entry
    manifest.write_text(json.dumps(data))
    with pytest.raises(StructuralError, match=f"manifest .*system.json: block A must name "
                       f"a Matrix Market file, got {type(entry).__name__}"):
        load_manifest(manifest)


def test_user_block_manifest(tmp_path):
    blocks = [np.diag([1.0, 2.0]), np.eye(2), [[3.0]]]
    path = tmp_path / "precond.json"
    path.write_text(json.dumps({"blocks": [b if isinstance(b, list) else np.asarray(b).tolist() for b in blocks]}))
    loaded = load_spd_blocks(path)
    assert np.allclose(loaded[0], [[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(loaded[2], [[3.0]])


def test_import_leaves_scipy_io_unloaded():
    # scipy.io is imported where Matrix Market files are read or written
    code = (
        "import sys\n"
        "import saddlebounds, saddlebounds.cli\n"
        "print('scipy.io' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
