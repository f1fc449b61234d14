"""Experiment configuration: one JSON document per run, flags override keys.

All frequencies in config documents are plain Hz (the 2*pi is applied
internally), times are nanoseconds, angles radians.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Mapping

from .device import DEFAULT_DEVICE, SCHEMES, DeviceParams, load_device_params, read_json_object
from .dynamics import require_step_floor


@dataclass
class ExperimentConfig:
    scheme: str = "fsim_rect"
    theta: float = math.pi / 4.0
    xi: float = math.pi / 2.0
    gate_time_ns: float | None = None  # None: derive from the exchange cap
    n_reps: int = 1
    n_values: tuple[int, ...] = ()
    eta: float = -1.0 / 3.0
    rabi_deltas: tuple[float, ...] = ()
    detuning_eps: tuple[float, ...] = ()
    decoherence: bool = True
    rwa: bool = False
    convention: str = "standard"
    grid_n: int | None = None  # None: 10 under quick, else 40
    phases: tuple[float, float, float] = (0.0, 0.0, 0.0)
    steps_per_period: int | None = None  # None: the run's default budget
    quick: bool = False
    workers: int = 1
    outdir: str = "out"
    device_file: str | None = None
    samples: int = 2001
    trajectory: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {tuple(SCHEMES)}")
        if self.convention not in ("standard", "paper"):
            raise ValueError("convention must be 'standard' or 'paper'")
        if self.grid_n is None:
            self.grid_n = 10 if self.quick else 40
        if self.grid_n < 1:
            raise ValueError("grid_n must be >= 1")
        if self.steps_per_period is not None:
            require_step_floor(self.steps_per_period)
        for name in ("theta", "xi", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gate_time_ns is not None and not 0.0 < self.gate_time_ns < math.inf:
            raise ValueError("gate_time_ns must be finite and > 0")
        if SCHEMES[self.scheme].one_step:
            if abs(self.theta) > math.pi / 2.0 + 1e-12 or abs(self.xi) > math.pi + 1e-12:
                raise ValueError("gate parameters outside |theta| <= pi/2, |xi| <= pi")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        if any(n < 1 for n in self.n_values):
            raise ValueError("every n_values entry must be >= 1")
        if self.samples < 2:
            raise ValueError("samples must be >= 2 (both ends of [0, T])")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for d in self.rabi_deltas:
            if not abs(d) <= 0.5:
                raise ValueError("rabi delta outside sane range")
        for e in self.detuning_eps:
            if not abs(e) <= 0.5:
                raise ValueError("detuning eps outside sane range")
        if self.trajectory and max(len(self.rabi_deltas), 1) * max(len(self.detuning_eps), 1) > 1:
            raise ValueError("a trajectory samples one run: give at most one rabi delta and one detuning eps")

    @property
    def gate_time(self) -> float | None:
        return None if self.gate_time_ns is None else self.gate_time_ns * 1e-9

    def device(self) -> DeviceParams:
        if self.device_file:
            return load_device_params(self.device_file)
        return DEFAULT_DEVICE

    def resolved_outdir(self) -> str:
        # an empty DQDPULSE_OUTDIR is unset, as for DQDPULSE_WORKERS
        return os.environ.get("DQDPULSE_OUTDIR") or self.outdir

    def resolved_workers(self) -> int:
        env = os.environ.get("DQDPULSE_WORKERS")
        if not env:
            return self.workers
        if not env.strip().isdigit() or int(env) < 1:
            raise ValueError(f"DQDPULSE_WORKERS must be an integer >= 1, got {env!r}")
        return int(env)

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        return json.dumps(doc, indent=2, sort_keys=True, default=list)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


# the JSON values each field annotation takes: numbers for a float, but no
# boolean for a number (bool is an int to Python)
_JSON_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def _accepts(annotation: str, val: Any) -> bool:
    """Whether a JSON value has the type of a field annotated ``annotation``
    (``float``, ``int | None``, ``tuple[float, ...]`` and the like)."""
    if annotation.endswith(" | None"):
        return val is None or _accepts(annotation[: -len(" | None")], val)
    if annotation.startswith("tuple["):
        items = annotation[len("tuple[") : -1].split(", ")
        if not isinstance(val, list):
            return False
        if items[-1] == "...":
            items = items[:1] * len(val)
        return len(val) == len(items) and all(map(_accepts, items, val))
    return isinstance(val, _JSON_TYPES[annotation]) and (annotation == "bool") == isinstance(val, bool)


def config_from_mapping(doc: Mapping[str, Any]) -> ExperimentConfig:
    fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, val in doc.items():
        if not _accepts(fields[key], val):
            raise ValueError(f"config key {key!r} must be of type {fields[key]}, got {json.dumps(val)}")
    return ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def config_document(path: str | os.PathLike | None, overrides: Mapping[str, Any]) -> dict[str, Any]:
    """The JSON document at ``path`` (None: none) with each non-None override
    replacing its key: a config is constructed from it once, so that defaults
    depending on other keys (``grid_n`` under ``quick``) see only those given."""
    doc = {} if path is None else read_json_object(path, "config")
    doc.update((k, v) for k, v in overrides.items() if v is not None)
    return doc
