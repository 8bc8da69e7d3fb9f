"""Seeded op lists: the inputs of every workload, derived from the seed alone.

Nothing here asks the program for anything, so the same seed gives the
same ops on every version of the program; a run records its op list
next to its results so it can be replayed.

Most draws come from *bags*: each bag holds every value of a grid once,
is shuffled by the seed, and refills when empty.  Every window of a
bag's size therefore sees each value exactly once, which keeps the
op-cost mix of a run the same from seed to seed.
"""

from __future__ import annotations

import random

KIB = 1024
WSTORES = [4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB]
PRECISIONS = ["INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16", "FP32"]
#: FP32 at these sizes has the only DCIM spaces of more than 512 genomes.
FP32_LARGE = [32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB]
#: Compile precisions: INT16 and FP32 compile ~3x slower (wider
#: verification twins), which would split op times into two modes.
COMPILE_PRECISIONS = ["INT2", "INT4", "INT8", "FP8", "FP16", "BF16"]
NETWORKS = ["tiny_cnn", "transformer_block", "gcn_network", "resnet_block", "mlp_mixer_block"]
MAPPING_PRECISIONS = ["INT4", "INT8", "FP8", "BF16"]
SCHEDULES = ["sequential", "pipelined"]
MAX_MACROS = [4, 8, 16]
MAX_L = [16, 32, 64]
MAX_H = [512, 1024, 2048]
#: Spec counts of a sweep op ("about 8"): the spread in op size keeps
#: op times from bunching into one narrow peak, whose median would jump
#: whenever the machine's speed changes during a run.
SWEEP_SPEC_COUNTS = list(range(4, 13))
#: Kinds of one serve round (10 ops); shares are fixed per round.  The
#: mix is synthetic: the repository records no real request traffic.
#: The shares were picked for steadiness -- the fast kinds (repeat,
#: run_read) fill the lowest 30% of op times and the mapping GA ops the
#: top 20%, so the overall median falls inside the reseeded DCIM
#: requests (the cache-hit path) rather than on the edge between two
#: kinds.  The cache-miss path is measured by ``miss_p50_ref``.
SERVE_ROUND = (
    ["repeat"] * 2 + ["run_read"] + ["reseed_dcim"] * 4 + ["novel_dcim"]
    + ["novel_mapping"] + ["reseed_mapping"]
)
#: Kinds whose request is new to the program, so every genome is
#: evaluated fresh: all sweep and compile ops (they use no cache) and
#: the novel serve requests.
MISS_KINDS = ("campaign", "compile", "novel_dcim", "novel_mapping")
#: A referencing op points at least this many ops back, so that with
#: two clients its target has almost always finished.
REFERENCE_GAP = 3


class Bag:
    """Seeded draws without replacement from ``values``, refilled when empty."""

    def __init__(self, rng: random.Random, values) -> None:
        self.rng = rng
        self.values = list(values)
        self.pool: list = []

    def draw(self):
        if not self.pool:
            self.pool = list(self.values)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def sweep_ops(seed: int, count: int) -> list[dict]:
    """One ``run_campaign`` per op over 4..12 distinct specs.

    Exactly one spec is FP32 at a size above the exhaustive threshold,
    so every op runs one GA spec; the others are drawn from the rest of
    the Wstore (4K..256K) x precision grid, all 8 precisions included.
    """
    rng = random.Random(seed)
    counts = Bag(rng, SWEEP_SPEC_COUNTS)
    ga_sizes = Bag(rng, FP32_LARGE)
    others = [
        {"wstore": w, "precision": p}
        for p in PRECISIONS
        for w in WSTORES
        if not (p == "FP32" and w in FP32_LARGE)
    ]
    ops = []
    for _ in range(count):
        specs = rng.sample(others, counts.draw() - 1)
        specs.append({"wstore": ga_sizes.draw(), "precision": "FP32"})
        rng.shuffle(specs)
        ops.append({"kind": "campaign", "specs": specs})
    return ops


def compile_ops(seed: int, count: int) -> list[dict]:
    """One ``SegaDcim.compile(spec, verify=True)`` per op."""
    rng = random.Random(seed)
    precisions = Bag(rng, COMPILE_PRECISIONS)
    wstores = Bag(rng, WSTORES)
    return [
        {"kind": "compile", "wstore": wstores.draw(), "precision": precisions.draw(),
         "ga_seed": rng.randrange(1 << 16)}
        for _ in range(count)
    ]


class Strata:
    """Seeded draws that cycle through ``strata`` (a :class:`Bag`) and,
    inside each stratum, through its items without replacement.

    Every window of ``len(strata)`` draws visits each stratum once, so
    the cost mix of a run's requests does not hang on the seed.
    """

    def __init__(self, rng: random.Random, strata: list[list]) -> None:
        self.rng = rng
        self.strata = strata
        self.order = Bag(rng, range(len(strata)))
        self.left: list[list] = [[] for _ in strata]

    def draw(self):
        index = self.order.draw()
        if not self.left[index]:
            self.left[index] = list(self.strata[index])
            self.rng.shuffle(self.left[index])
        return self.left[index].pop()


def _dcim_strata() -> list[list[dict]]:
    """Serve DCIM specs, one stratum per Wstore x precision cell (FP32
    above the exhaustive threshold excluded), sizing bounds inside."""
    return [
        [{"wstore": w, "precision": p, "max_l": max_l, "max_h": max_h}
         for max_l in MAX_L for max_h in MAX_H]
        for p in PRECISIONS
        for w in WSTORES
        if not (p == "FP32" and w in FP32_LARGE)
    ]


def _mapping_strata() -> list[list[dict]]:
    """Serve mapping specs, one stratum per network."""
    return [
        [{"network": n, "precision": p, "schedule": s, "max_macros": m}
         for p in MAPPING_PRECISIONS for s in SCHEDULES for m in MAX_MACROS]
        for n in NETWORKS
    ]


def serve_ops(seed: int, count: int) -> list[dict]:
    """Seeded HTTP request mix for ``repro serve``.

    * ``novel_*``: specs the server has not seen (cache misses, store
      writes); DCIM requests carry two specs, mapping requests one.
      Specs cycle through the Wstore x precision cells (mapping: the
      networks) so every run sees the same mix of space sizes.
    * ``reseed_*``: an earlier novel request under a new seed, so the
      same genomes come back as cache hits; each picks the eligible
      novel request reseeded least so far, so reseeds follow the novel
      mix.
    * ``repeat``: the exact request of an earlier op (job dedup).
    * ``run_read``: ``GET /api/runs/<id>`` of an earlier op's run.
    """
    rng = random.Random(seed)
    draws = {"dcim": Strata(rng, _dcim_strata()), "mapping": Strata(rng, _mapping_strata())}
    ops: list[dict] = []
    novel = {"dcim": [], "mapping": []}
    reseeds: dict[int, int] = {}
    submitted: list[int] = []
    while len(ops) < count:
        kinds = list(SERVE_ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            index = len(ops)
            eligible = lambda pool: [j for j in pool if j <= index - REFERENCE_GAP]
            if kind == "reseed_dcim" and not eligible(novel["dcim"]):
                kind = "novel_dcim"
            if kind == "reseed_mapping" and not eligible(novel["mapping"]):
                kind = "novel_mapping"
            if kind in ("repeat", "run_read") and not eligible(submitted):
                kind = "novel_dcim"
            if kind.startswith("novel"):
                problem = kind.split("_", 1)[1]
                specs = [draws[problem].draw() for _ in range(2 if problem == "dcim" else 1)]
                request = {"problem": problem, "specs": specs, "seed": rng.randrange(1 << 16)}
                novel[problem].append(index)
            elif kind.startswith("reseed"):
                pool = eligible(novel[kind.split("_", 1)[1]])
                fewest = min(reseeds.get(j, 0) for j in pool)
                source_index = rng.choice([j for j in pool if reseeds.get(j, 0) == fewest])
                reseeds[source_index] = fewest + 1
                source = ops[source_index]["request"]
                request = dict(source, seed=source["seed"] + 1 + rng.randrange(1 << 16))
            elif kind == "repeat":
                target = rng.choice(eligible(submitted))
                ops.append({"kind": kind, "request": ops[target]["request"], "target": target})
                submitted.append(index)
                continue
            else:
                target = rng.choice(eligible(submitted))
                ops.append({"kind": kind, "target": target})
                continue
            ops.append({"kind": kind, "request": request})
            submitted.append(index)
            if len(ops) == count:
                break
        # ``repeat``/``run_read`` may have overshot inside the round.
        del ops[count:]
    return ops


#: Warm-up op per workload: outside the drawn grids, so it warms the
#: interpreter and the cost-engine memo but no op's cache entries.
WARMUP = {
    "sweep": {"kind": "campaign", "specs": [{"wstore": 2 * KIB, "precision": "INT8"},
                                             {"wstore": 2 * KIB, "precision": "BF16"}]},
    "compile": {"kind": "compile", "wstore": 2 * KIB, "precision": "INT8", "ga_seed": 1},
    "serve": {"kind": "novel_dcim", "request": {
        "problem": "dcim", "seed": 1,
        "specs": [{"wstore": 2 * KIB, "precision": "INT8", "max_l": 8}]}},
}

GENERATORS = {"sweep": sweep_ops, "compile": compile_ops, "serve": serve_ops}
