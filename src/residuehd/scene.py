"""Disentangling object identity and 2-D position from feature maps.

A scene is described by sparse per-channel coefficient maps (produced
by any feature extractor; this module only ingests them). Each nonzero
coefficient contributes a position-bound feature vector to a single
scene superposition:

    s = sum_{j,x,y} h(x) (.) v(y) (.) d_j * A_j(x, y)

where h and v are residue encodings of the horizontal and vertical
coordinate and d_j is a random identity vector per feature channel.
An object placed at (x', y') therefore satisfies
s = h(x') (.) v(y') (.) O_i, with O_i the object's encoding in its
canonical reference frame, and recognition becomes factorization.

Two resonator layouts solve it: `standard` enumerates full position
codebooks (10 + 105 + 105 = 220 vectors for a 10-object, 105 x 105
problem) and `residue` splits each axis into per-modulus factors
(10 + (3+5+7) * 2 = 40 vectors), trading factors for far smaller
codebooks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .phasor import _count, _index, phase_normalize
from .residue import ResidueSystem, _child_seeds, crt_reconstruct, make_residue_system
from .resonator import Codebook, ResonatorConfig, resonator_factorize

__all__ = [
    "FeatureMaps",
    "SceneVector",
    "SceneDecode",
    "SceneCodec",
    "load_feature_maps",
    "save_feature_maps",
    "translate_maps",
    "make_synthetic_objects",
    "scene_experiment",
]


# a bool value would read as 1.0 or 0.0; neither type admits a subclass, so type() finds every bool
_BOOL_TYPES = (bool, np.bool_)


@dataclass(frozen=True)
class FeatureMaps:
    """Sparse (x, y, value) coefficients per feature channel on an H x W grid."""

    grid: tuple[int, int]  # (H, W): H rows (y), W columns (x)
    channels: dict[int, tuple[tuple[int, int, float], ...]]

    def __post_init__(self):
        H, W = (_index(n, "grid") for n in self.grid)
        if H < 1 or W < 1:
            raise ValueError(f"grid must be positive, got {self.grid}")
        if not isinstance(self.channels, dict):
            raise ValueError(f"channels must map channel ids to (x, y, value) rows, got {self.channels!r}")
        frozen = {}
        for j, coeffs in self.channels.items():
            j = _index(j, "channel id")
            if not isinstance(coeffs, (tuple, list)):
                raise ValueError(f"channel {j}: expected a sequence of (x, y, value) rows, got {coeffs!r}")
            rows = []
            for k, row in enumerate(coeffs):
                try:
                    x, y, val = row
                except (TypeError, ValueError):
                    raise ValueError(f"channel {j}, coeff {k}: expected an (x, y, value) row, got {row!r}") from None
                if type(val) in _BOOL_TYPES:
                    raise ValueError(f"channel {j}, coeff {k}: value must be a number, got {val!r}")
                x, y = _index(x, "x"), _index(y, "y")
                if not (0 <= x < W and 0 <= y < H):
                    raise ValueError(f"channel {j}, coeff {k}: position ({x}, {y}) outside {W}x{H} grid")
                try:
                    finite = math.isfinite(val)
                except (TypeError, OverflowError) as exc:
                    raise ValueError(f"channel {j}, coeff {k}: values must be real: {exc}") from None
                if not finite:
                    raise ValueError(f"channel {j}, coeff {k}: non-finite value {val}")
                rows.append((x, y, float(val)))
            frozen[j] = tuple(rows)
        object.__setattr__(self, "channels", frozen)
        object.__setattr__(self, "grid", (H, W))


@dataclass(frozen=True)
class SceneVector:
    """Superposition of position-bound feature vectors (not unit-magnitude)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("scene vector has non-finite components")
        object.__setattr__(self, "values", vals)


@dataclass
class SceneDecode:
    object_id: int
    x: int
    y: int
    converged: bool
    evaluations: int
    restarts_used: int


def load_feature_maps(path) -> FeatureMaps:
    """Read the {grid, channels} JSON format; a malformed file raises ValueError.

    Checks the JSON objects and lists, naming the entry at fault, and that
    no channel id repeats; FeatureMaps checks the rows and their values,
    so a float position or a true or false value is rejected.
    """
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(doc, dict) or "grid" not in doc or not isinstance(doc.get("channels"), list):
        raise ValueError("feature-map file must contain 'grid' and a 'channels' list")
    grid = doc["grid"]
    if not (isinstance(grid, list) and len(grid) == 2):
        raise ValueError(f"grid must be [H, W], got {grid!r}")
    channels = {}
    for c_idx, ch in enumerate(doc["channels"]):
        if not (isinstance(ch, dict) and type(ch.get("id")) is int and isinstance(ch.get("coeffs"), list)):
            raise ValueError(f"channel entry {c_idx}: needs an integer 'id' and a 'coeffs' list")
        if ch["id"] in channels:
            raise ValueError(f"channel entry {c_idx}: id {ch['id']} repeats an earlier channel")
        channels[ch["id"]] = ch["coeffs"]
    return FeatureMaps(grid=tuple(grid), channels=channels)


def save_feature_maps(maps: FeatureMaps, path) -> None:
    doc = {
        "grid": [maps.grid[0], maps.grid[1]],
        "channels": [
            {"id": j, "coeffs": [[x, y, v] for x, y, v in coeffs]}
            for j, coeffs in sorted(maps.channels.items())
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="ascii")


def translate_maps(maps: FeatureMaps, dx: int, dy: int) -> FeatureMaps:
    """Shift every coefficient by (dx, dy), wrapping around the grid; the shifts are integers."""
    dx, dy = _index(dx, "dx"), _index(dy, "dy")
    H, W = maps.grid
    return FeatureMaps(
        grid=maps.grid,
        channels={
            j: tuple(((x + dx) % W, (y + dy) % H, v) for x, y, v in coeffs)
            for j, coeffs in maps.channels.items()
        },
    )


class SceneCodec:
    """Binds feature maps into scene vectors and factorizes them back.

    Holds the horizontal/vertical residue systems, the random feature
    identity vectors, and the position codebooks of both factor layouts;
    position encodings are rows of the standard layout's codebooks.
    """

    def __init__(self, hsys: ResidueSystem, vsys: ResidueSystem, n_features: int, seed: int):
        n_features = _count(n_features, "n_features")
        if hsys.dim != vsys.dim:
            raise ValueError("horizontal and vertical systems disagree on dimension")
        self.hsys = hsys
        self.vsys = vsys
        self.dim = hsys.dim
        self.n_features = n_features
        rng = np.random.default_rng(seed)
        self.feature_vectors = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n_features, self.dim)))
        # each layout is (horizontal books, vertical books); a standard axis is
        # one book of the encodings 0 .. M-1, which is that axis's composed base
        self.layouts = {
            "standard": ((hsys.composed_base,), (vsys.composed_base,)),
            "residue": (hsys.bases, vsys.bases),
        }

    def encode_scene(self, maps: FeatureMaps) -> SceneVector:
        """s = sum of h(x) (.) v(y) (.) d_j weighted by each coefficient."""
        H, W = maps.grid
        if W > self.hsys.range_M or H > self.vsys.range_M:
            raise ValueError(
                f"grid {W}x{H} exceeds encodable range {self.hsys.range_M}x{self.vsys.range_M}"
            )
        (h_book,), (v_book,) = self.layouts["standard"]
        s = np.zeros(self.dim, dtype=np.complex128)
        for j, coeffs in sorted(maps.channels.items()):
            if not 0 <= j < self.n_features:
                raise ValueError(f"feature id {j} outside [0, {self.n_features})")
            d_j = self.feature_vectors[j]
            for x, y, val in coeffs:
                s += h_book.row(x) * v_book.row(y) * d_j * val
        return SceneVector(values=s)

    def build_object_codebook(self, objects: Sequence[FeatureMaps]) -> Codebook:
        """One canonical-frame scene vector per object, scaled to norm sqrt(D).

        sqrt(D) is the norm of a unit phasor vector, so the object factor
        weighs like the position factors; zero rows stay zero.
        """
        entries = np.stack([self.encode_scene(obj).values for obj in objects])
        norms = np.linalg.norm(entries, axis=1, keepdims=True)
        scale = np.where(norms > 0.0, math.sqrt(self.dim) / np.where(norms > 0.0, norms, 1.0), 1.0)
        return Codebook(entries * scale)

    def factorize_scene(
        self,
        s: SceneVector,
        object_codebook: Codebook,
        mode: str = "residue",
        config: ResonatorConfig | None = None,
    ) -> SceneDecode:
        """Recover (object, x, y) with a standard or residue factor layout.

        object_codebook is the one build_object_codebook returns. Every
        attempt sweeps until its state settles (settle=True): an early
        stop saves more on the standard layout's slow attempts than on
        the residue layout's, so it would shrink the evaluation ratio
        between the two that scene_experiment measures.
        """
        if mode not in ("standard", "residue"):
            raise ValueError(f"unknown mode {mode!r}")
        h_books, v_books = self.layouts[mode]
        books = [object_codebook, *h_books, *v_books]
        config = config or ResonatorConfig(max_iters=15, max_restarts=9)
        z = phase_normalize(s.values)
        state = resonator_factorize(z, books, config, settle=True)
        # a standard axis has one book of modulus M, whose label CRT-reads as itself
        h_end = 1 + len(h_books)
        x = crt_reconstruct(state.labels[1:h_end], [b.modulus for b in h_books])
        y = crt_reconstruct(state.labels[h_end:], [b.modulus for b in v_books])
        return SceneDecode(
            object_id=int(state.labels[0]),
            x=x,
            y=y,
            converged=state.converged,
            evaluations=state.codebook_evaluations,
            restarts_used=state.restarts_used,
        )


def make_synthetic_objects(
    n_objects: int,
    n_features: int,
    grid: tuple[int, int],
    footprint: int = 12,
    coeffs_per_object: int = 20,
    seed: int = 0,
) -> list[FeatureMaps]:
    """Random sparse canonical-frame objects within a footprint at the origin.

    Each object's coefficients sit at distinct (channel, x, y) slots, so
    coeffs_per_object may not exceed n_features * footprint**2. The counts
    and the footprint must be integers, the footprint and n_features at
    least 1: a float footprint would count slots that no draw can reach.
    """
    n_objects, coeffs_per_object = _index(n_objects, "n_objects"), _index(coeffs_per_object, "coeffs_per_object")
    n_features, footprint = _count(n_features, "n_features"), _count(footprint, "footprint")
    H, W = grid
    if footprint > min(H, W):
        raise ValueError("footprint exceeds grid")
    slots = n_features * footprint**2
    if coeffs_per_object > slots:
        raise ValueError(f"{coeffs_per_object} coefficients per object exceed the {slots} (channel, x, y) slots")
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(n_objects):
        channels: dict[int, list] = {}
        taken = set()
        while len(taken) < coeffs_per_object:
            j = int(rng.integers(n_features))
            x = int(rng.integers(footprint))
            y = int(rng.integers(footprint))
            if (j, x, y) in taken:
                continue
            taken.add((j, x, y))
            channels.setdefault(j, []).append((x, y, float(rng.uniform(0.5, 1.5))))
        objects.append(FeatureMaps(grid=grid, channels={j: tuple(c) for j, c in channels.items()}))
    return objects


def scene_experiment(
    n_scenes: int,
    D: int,
    n_objects: int = 10,
    n_features: int = 8,
    grid: tuple[int, int] = (105, 105),
    moduli: Sequence[int] = (3, 5, 7),
    seed: int = 0,
    config: ResonatorConfig | None = None,
) -> dict:
    """Place single objects at random positions and factorize in the residue, then the standard layout.

    Returns per-mode accuracy, mean codebook evaluations, and the
    codebook vector count, over a shared set of scenes. Raises
    ValueError, before any work, unless n_scenes is an integer >= 1.
    """
    n_scenes = _count(n_scenes, "scenes")
    s_h, s_v, s_codec, s_obj, s_scene = _child_seeds(seed, (), 5)
    hsys = make_residue_system(moduli, D, s_h)
    vsys = make_residue_system(moduli, D, s_v)
    codec = SceneCodec(hsys, vsys, n_features, s_codec)
    objects = make_synthetic_objects(n_objects, n_features, grid, seed=s_obj)
    object_cb = codec.build_object_codebook(objects)
    scene_rng = np.random.default_rng(s_scene)
    scenes = []
    for _ in range(n_scenes):
        i = int(scene_rng.integers(n_objects))
        dx = int(scene_rng.integers(grid[1]))
        dy = int(scene_rng.integers(grid[0]))
        scenes.append((i, dx, dy, codec.encode_scene(translate_maps(objects[i], dx, dy))))
    out = {"D": D, "n_objects": n_objects, "grid": list(grid), "moduli": list(moduli), "modes": {}}
    base_cfg = config or ResonatorConfig(max_iters=15, max_restarts=9)
    for m_idx, mode in enumerate(("residue", "standard")):
        vectors = object_cb.n_entries + sum(b.n_entries for axis in codec.layouts[mode] for b in axis)
        hits = 0
        evals = []
        for t, (i, dx, dy, s) in enumerate(scenes):
            cfg = replace(base_cfg, seed=_child_seeds(seed, (m_idx, t))[0])
            dec = codec.factorize_scene(s, object_cb, mode=mode, config=cfg)
            evals.append(dec.evaluations)
            if dec.object_id == i and dec.x == dx and dec.y == dy:
                hits += 1
        out["modes"][mode] = {
            "accuracy": hits / n_scenes,
            "mean_evaluations": float(np.mean(evals)),
            "codebook_vectors": vectors,
            "scenes": n_scenes,
        }
    return out
