"""Built-in channel generators, shared by the CLI and the test suites."""

from __future__ import annotations

import json
import re

import numpy as np

from .channels import Channel, deterministic_hom
from .groups import Group, enumerate_subgroups, make_group, quotient, subgroup_from_members

_GROUP_SPEC_RE = re.compile(r"^z\d+(xz\d+)*$", re.IGNORECASE)


def parse_group_spec(spec: str) -> Group:
    """Group from either a JSON list of orders ('[2,4]') or 'Z2xZ4' notation."""
    spec = spec.strip()
    try:
        orders = json.loads(spec)
    except json.JSONDecodeError:
        orders = None
    if isinstance(orders, list):
        return make_group(orders)
    if _GROUP_SPEC_RE.match(spec):
        return make_group([int(part[1:]) for part in spec.lower().split("x")])
    raise ValueError(f"unrecognized group spec {spec!r}; use e.g. 'Z4', 'Z2xZ2' or '[2,4]'")


def bec_channel(erasure: float, group: Group | None = None) -> Channel:
    """Erasure channel: the input symbol survives with probability 1 - erasure."""
    if not 0.0 <= erasure <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {erasure}")
    group = group or make_group([2])
    size = group.size
    kernel = np.hstack([(1.0 - erasure) * np.eye(size), np.full((size, 1), erasure)])
    outputs = tuple(group.element_label(i) for i in range(size)) + ("e",)
    return Channel(kernel, outputs, group)


def bsc_channel(crossover: float) -> Channel:
    """Binary symmetric channel on Z2."""
    if not 0.0 <= crossover <= 1.0:
        raise ValueError(f"crossover probability must be in [0, 1], got {crossover}")
    kernel = np.array([[1.0 - crossover, crossover], [crossover, 1.0 - crossover]])
    return Channel(kernel, ("0", "1"), make_group([2]))


def useless_channel(group: Group) -> Channel:
    """Single-output channel carrying no information."""
    return Channel(np.ones((group.size, 1)), ("*",), group)


def identity_channel(group: Group) -> Channel:
    """Noiseless channel on the group."""
    outputs = tuple(group.element_label(i) for i in range(group.size))
    return Channel(np.eye(group.size), outputs, group)


def z4_multilevel_channel(erasure: float) -> Channel:
    """Z4 channel that always reveals the input's coset modulo {0,2} and sends
    the within-coset symbol through an erasure channel.

    Outputs are (coset, symbol) pairs where symbol is 0, 1 or 'e'.
    """
    if not 0.0 <= erasure <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {erasure}")
    group = make_group([4])
    kernel = np.zeros((4, 6))
    for x in range(4):
        coset = x % 2
        inner = x // 2
        kernel[x, coset * 3 + inner] = 1.0 - erasure
        kernel[x, coset * 3 + 2] = erasure
    outputs = ("c0:0", "c0:1", "c0:e", "c1:0", "c1:1", "c1:e")
    return Channel(kernel, outputs, group)


def random_channel(group: Group, n_outputs: int, seed: int) -> Channel:
    """Row-stochastic channel with Dirichlet(1) rows, reproducible from the seed."""
    if n_outputs < 1:
        raise ValueError("channel needs at least one output")
    rng = np.random.default_rng([seed, group.size, n_outputs])
    kernel = rng.dirichlet(np.ones(n_outputs), size=group.size)
    return Channel(kernel, None, group)


def dh_mix_channel(group: Group, seed: int) -> Channel:
    """Random convex mixture of the group's quotient projections.

    With a seeded Dirichlet weight per subgroup, the output reveals the
    input's coset modulo a randomly drawn subgroup. The Blackwell measure
    stays inside the finite family of coset-uniform posteriors under both
    polar transforms, and the nodes of one depth of the transform tree
    share their posterior matrix (bitwise, up to merges that average
    rounding-level differences): only the weights differ. The walk steps
    such nodes by replaying one canonicalization plan (polar.Chunk), so
    deep recursions stay exact and cheap while still polarizing to every
    subgroup with positive probability.
    """
    subs = enumerate_subgroups(group)
    rng = np.random.default_rng([seed, group.size, len(subs)])
    lam = rng.dirichlet(np.ones(len(subs)))
    # subgroup t's block of columns is deterministic_hom's kernel times lam[t]
    quotients = [quotient(group, sub) for sub in subs]
    kernel = np.zeros((group.size, sum(q.count for q in quotients)))
    outputs: list[str] = []
    for weight, sub, q in zip(lam, subs, quotients):
        kernel[np.arange(group.size), len(outputs) + q.coset_of] = weight
        outputs.extend(f"{sub.label()}@{q.coset_label(j)}" for j in range(q.count))
    return Channel(kernel, outputs, group)


# the fields of each preset's spec, its name included
_PRESET_FIELDS = {
    "bec": 2, "bsc": 2, "dh": 3, "z4-multilevel": 2, "random": 2, "dh-mix": 2, "identity": 1, "useless": 1,
}


def _seed(field: str) -> int:
    """A preset's SEED field, named where numpy would reject it."""
    seed = int(field)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def parse_preset(
    spec: str,
    group: Group | None = None,
    n_outputs: int | None = None,
) -> Channel:
    """Channel from a preset string.

    Supported: 'bec:EPS', 'bsc:P', 'dh:GROUP:{i,j,...}', 'z4-multilevel:EPS',
    'random:SEED' (uses the given group, default Z2), 'dh-mix:SEED',
    'identity', 'useless'. A spec with more fields than its form is
    rejected, since the extra fields would select nothing.
    """
    parts = spec.split(":")
    name = parts[0].lower()
    if name not in _PRESET_FIELDS:
        raise ValueError(f"unknown preset {name!r}")
    if len(parts) > _PRESET_FIELDS[name]:
        raise ValueError(f"bad preset {spec!r}: {name} takes {_PRESET_FIELDS[name] - 1} field(s)")
    try:
        if name == "bec":
            return bec_channel(float(parts[1]), group)
        if name == "bsc":
            return bsc_channel(float(parts[1]))
        if name == "dh":
            g = parse_group_spec(parts[1])
            members = [int(v) for v in parts[2].strip("{}").split(",")]
            return deterministic_hom(g, subgroup_from_members(g, members))
        if name == "z4-multilevel":
            return z4_multilevel_channel(float(parts[1]))
        if name == "random":
            g = group or make_group([2])
            n = n_outputs if n_outputs is not None else g.size
            return random_channel(g, n, _seed(parts[1]))
        if name == "dh-mix":
            return dh_mix_channel(group or make_group([2]), _seed(parts[1]))
        if name == "identity":
            return identity_channel(group or make_group([2]))
        return useless_channel(group or make_group([2]))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad preset {spec!r}: {exc}") from exc
