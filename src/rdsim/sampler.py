"""Respondent-driven sampling over a population graph.

Recruitment walks the graph edges: a fixed number of seeds is drawn, each
sampled node may recruit up to a coupon-limited number of its not-yet-
sampled neighbors (chosen uniformly, attribute-blind), and recruitment
proceeds first-in-first-out by coupon issuance until the target sample
size is reached. Nobody is sampled twice. If every chain dies out early,
the run either reseeds uniformly among the unsampled (default) or returns
a truncated sample flagged as such.

After seed selection a run makes one draw from its random stream: a block
of ``target_sample_size - num_seeds`` uniforms, one per admitted non-seed
entry, whether recruit or reseed. A recruiter takes its recruits by a
partial Fisher-Yates shuffle of its open neighbors, so its picks are
uniform without replacement and in uniformly random coupon order. From
one generator state, a run to a smaller target is therefore the start of a
run to a larger one, and ``RecruitmentForest.prefix`` cuts the one from the
other.

The shuffle's swaps are applied to positions of the open-neighbor array,
and only the picked positions are read from it. That picks what swapping a
full list of the open neighbors would, without building the list.

The loop keeps the entries' nodes and one record per recruiter that
recruits: its entry and its recruit count, whose recruits are the entries
that follow. A reseed is a one-entry record with no recruiter. Recruiters,
waves, seed ids and coupon indices are built from those records with numpy
after the loop; no draw or pick reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _as_attributes, _as_int64
from .tables import check_names, in_file, read_table, write_table

__all__ = [
    "SamplerConfig",
    "RecruitmentForest",
    "select_seeds",
    "run_rds",
    "read_forest",
    "write_forest",
]

SEED_SELECTION_MODES = ("uniform", "degree")


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of one recruitment run.

    Attributes:
        num_seeds: Initial seed count s (>= 1).
        coupons_per_node: Maximum recruits per sampled node c (>= 1).
        target_sample_size: Total nodes to sample n (>= num_seeds).
        seed_selection: "uniform" (attribute- and degree-blind) or
            "degree" (sequentially weighted by degree, without replacement).
        reseed_on_death: Add a fresh uniform seed whenever the recruitment
            queue empties before reaching the target size.
    """

    num_seeds: int
    coupons_per_node: int
    target_sample_size: int
    seed_selection: str = "uniform"
    reseed_on_death: bool = True

    def __post_init__(self):
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")
        if self.coupons_per_node < 1:
            raise ValueError("coupons_per_node must be >= 1")
        if self.target_sample_size < self.num_seeds:
            raise ValueError("target_sample_size must be >= num_seeds")
        if self.seed_selection not in SEED_SELECTION_MODES:
            raise ValueError(f"seed_selection must be one of {SEED_SELECTION_MODES}")


@dataclass(frozen=True)
class RecruitmentForest:
    """Observed outcome of one recruitment run.

    Entries are ordered by sampling time, and their nodes are distinct and
    nonnegative. Seeds (including reseeds) carry recruiter and coupon_index
    -1 and wave 0; every recruiter is an earlier entry, every recruit's wave
    is its recruiter's wave plus one and its seed_id its recruiter's, and
    recruiter-recruit pairs are edges of the population graph. ``degrees``
    holds the reported network size of each entry (equal to the true graph
    degree here). ``reseed_count`` is at most the seed entries minus one.

    Construction checks the invariants that need no graph, whatever the
    source, and raises ``ValueError`` on a break; an empty or repeated
    attribute name is one, as it would make a forest file that does not
    read back. ``recruiter_entries`` holds the entry position of each
    recruit's recruiter, in entry order.
    """

    nodes: np.ndarray
    recruiters: np.ndarray
    waves: np.ndarray
    seed_ids: np.ndarray
    coupon_indices: np.ndarray
    degrees: np.ndarray
    attributes: np.ndarray
    attribute_names: tuple[str, ...]
    truncated: bool = False
    reseed_count: int = 0
    recruiter_entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = {}
        for name in ("nodes", "recruiters", "waves", "seed_ids", "coupon_indices", "degrees"):
            arr = _as_int64(getattr(self, name), name)
            arr.flags.writeable = False
            arrays[name] = arr
        size = arrays["nodes"].size
        if any(arr.size != size for arr in arrays.values()):
            raise ValueError("forest columns must have equal length")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        entries = _check_recruitment(self)
        entries.flags.writeable = False
        object.__setattr__(self, "recruiter_entries", entries)
        # the first entry is a seed, so the seed entries after it are the most reseeds there can be
        most = size - entries.size - 1
        if not 0 <= self.reseed_count <= most:
            raise ValueError(
                f"reseed_count must be in 0..{most} for {most + 1} seed entries, not {self.reseed_count}"
            )
        attrs = _as_attributes(self.attributes, rows=size)
        names = check_names(self.attribute_names)
        if attrs.shape[1] != len(names):
            raise ValueError(f"{attrs.shape[1]} attribute columns for {len(names)} attribute names")
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "attribute_names", names)

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def max_wave(self) -> int:
        return int(self.waves.max()) if self.size else 0

    def recruitment_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(recruiter, recruit) node pairs, one per recruitment."""
        mask = self.recruiters >= 0
        return self.recruiters[mask], self.nodes[mask]

    def attribute_column(self, attribute: int = 0) -> np.ndarray:
        return self.attributes[:, attribute]

    def prefix(self, size: int) -> RecruitmentForest:
        """The first ``size`` entries, as a run that stopped at ``size`` records them.

        This is the public cut of a forest. From one generator state, a run
        to target n1 is the first n1 entries of a run to any larger target
        (see :func:`run_rds`), so ``run_rds(..., n2).prefix(n1)`` equals
        ``run_rds(..., n1)``. ``reseed_count`` counts the prefix's own
        reseeds, and the prefix is truncated only when the cut reaches past
        a truncated run's end. A cut at or past the end of a run that
        reached its target returns the forest itself.

        ``sample_estimates(forest, graph, sizes)`` estimates every cut of
        ``sizes`` without building one; its results equal those of
        ``sample_estimates(forest.prefix(size), graph)``, which serves as
        its oracle.

        Raises:
            ValueError: If ``size`` is not an integer or is below 1.
        """
        (entries,), (reseed_count,), (truncated,) = self._cuts([size])
        if (entries, reseed_count, truncated) == (self.size, self.reseed_count, self.truncated):
            return self
        return RecruitmentForest(
            nodes=self.nodes[:entries],
            recruiters=self.recruiters[:entries],
            waves=self.waves[:entries],
            seed_ids=self.seed_ids[:entries],
            coupon_indices=self.coupon_indices[:entries],
            degrees=self.degrees[:entries],
            attributes=self.attributes[:entries],
            attribute_names=self.attribute_names,
            reseed_count=reseed_count,
        )

    def _cuts(self, sizes) -> tuple[list[int], list[int], list[bool]]:
        """Entry count, ``reseed_count`` and ``truncated`` of ``prefix(size)``, one per size, as lists.

        Raises:
            ValueError: If a size is not an integer or is below 1.
        """
        # a cut past the end stops there, however far past it the size reaches
        sizes = _as_int64([min(size, self.size + 1) for size in sizes], "prefix sizes")
        small = sizes[sizes < 1]
        if small.size:
            raise ValueError(f"a forest prefix needs size >= 1, not {small[0]}")
        entries = np.minimum(sizes, self.size)
        # seed entries among the first e entries, at e - 1; the reseeds are the run's last
        # seed entries, so those past a cut are reseeds first
        seeds = np.cumsum(self.recruiters < 0)
        reseeds_cut = seeds[-1] - seeds[entries - 1]
        # read_forest resets the count to 0 while the file can still hold reseed entries
        reseed_count = np.maximum(self.reseed_count - reseeds_cut, 0)
        truncated = self.truncated & (sizes > self.size)
        return entries.tolist(), reseed_count.tolist(), truncated.tolist()


def select_seeds(graph: Graph, config: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw ``config.num_seeds`` distinct seed nodes, in recruitment order.

    Uniform mode ignores attributes and degrees; degree mode samples
    sequentially without replacement with probability proportional to
    degree.
    """
    n = graph.node_count
    s = config.num_seeds
    if s > n:
        raise ValueError(f"cannot select {s} seeds from {n} nodes")
    if config.seed_selection == "uniform":
        return rng.choice(n, size=s, replace=False).astype(np.int64)
    weights = graph.degrees.astype(np.float64).copy()
    available = np.ones(n, dtype=bool)
    seeds = np.empty(s, dtype=np.int64)
    for i in range(s):
        total = weights.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=weights / total))
        else:
            # only isolated nodes left; degree weighting degenerates to uniform
            remaining = np.flatnonzero(available)
            pick = int(remaining[rng.integers(remaining.size)])
        seeds[i] = pick
        weights[pick] = 0.0
        available[pick] = False
    return seeds


def run_rds(
    graph: Graph,
    attributes: np.ndarray,
    config: SamplerConfig,
    rng: np.random.Generator,
    attribute_names: tuple[str, ...] | None = None,
    seeds=None,
) -> RecruitmentForest:
    """Simulate one recruitment run over ``graph``.

    Breadth-first by coupon issuance: every entry recruits once, in
    admission order, so the FIFO queue is the entries not yet served.
    Each recruits ``min(coupons, unsampled neighbors, remaining budget)``
    recruits chosen uniformly without replacement among its currently
    unsampled neighbors, and takes its wave and seed_id from its own
    entry. The run halts at exactly ``target_sample_size`` nodes. If every
    entry has recruited first, a fresh uniform seed is added when
    ``reseed_on_death`` is set; otherwise the partial sample is returned
    with ``truncated=True``.

    After seed selection the run draws exactly one block,
    ``rng.random(target_sample_size - num_seeds)``, even when it stops
    early. The i-th non-seed entry (0-based) enters through ``uniforms[i]``:
    a reseed takes ``unsampled[int(u * unsampled.size)]``, and recruit t of
    a recruiter with k open neighbors swaps position t with position
    ``t + int(u * (k - t))`` of the open list and takes position t
    (partial Fisher-Yates). ``u < 1`` keeps every index in range, and
    ``floor(u * k)`` moves an outcome's probability by at most 2**-53.
    The swaps act on positions only: the open neighbors stay one array in
    ``graph.neighbors`` order, a dict holds the positions that earlier
    swaps moved, and each pick reads one cell of the array. That equals
    the shuffle of the full list.

    The loop records each recruiter that recruits once, as its entry and
    its recruit count, and each reseed as a one-entry record with owner
    -1. After the loop, the recruiter, wave, seed_id and coupon_index
    columns are built from those records with numpy: a recruit's coupon
    index is its position within its record, and its wave and seed_id
    follow the chain of owners back to its seed entry.

    Args:
        graph: Population graph (shared read-only).
        attributes: Binary attribute matrix (n,) or (n, m).
        config: Sampler parameters; ``target_sample_size`` must not exceed
            the population size.
        rng: Random stream for this run.
        attribute_names: Labels for the attribute columns; defaults to
            "z" or "z0", "z1", ...
        seeds: Optional explicit seed nodes (distinct, in ``0 .. node_count-1``,
            length ``config.num_seeds``), overriding seed selection.

    Returns:
        The recruitment forest, with all invariants holding.
    """
    z = _as_attributes(attributes, rows=graph.node_count)
    if attribute_names is None:
        attribute_names = ("z",) if z.shape[1] == 1 else tuple(f"z{k}" for k in range(z.shape[1]))
    n_target = config.target_sample_size
    if n_target > graph.node_count:
        raise ValueError(f"target_sample_size {n_target} exceeds the population size {graph.node_count}")

    if seeds is None:
        seeds = select_seeds(graph, config, rng)
    else:
        seeds = _as_int64(seeds, "seeds")
        if seeds.size != config.num_seeds or np.unique(seeds).size != seeds.size:
            raise ValueError("explicit seeds must be num_seeds distinct nodes")
        if seeds.min() < 0 or seeds.max() >= graph.node_count:
            raise ValueError(f"explicit seeds must be nodes in 0..{graph.node_count - 1}")

    is_open = np.ones(graph.node_count, dtype=bool)  # not yet sampled
    is_open[seeds] = False
    # graph.neighbors(r) is this slice of the CSR arrays; slicing them here saves a call per recruiter
    indptr, indices = graph._indptr, graph._indices
    nodes = seeds.tolist()
    owners, counts = [], []  # one record per recruiter that recruits, or per reseed (owner -1)
    count = len(nodes)  # entries so far
    head = 0  # the queue is nodes[head:]
    reseed_count = 0
    truncated = False
    coupons = config.coupons_per_node
    num_seeds = config.num_seeds
    uniforms = rng.random(n_target - num_seeds).tolist()

    while count < n_target:
        if head == count:
            if not config.reseed_on_death:
                truncated = True
                break
            unsampled = np.flatnonzero(is_open)
            fresh = int(unsampled[int(uniforms[count - num_seeds] * unsampled.size)])
            is_open[fresh] = False
            nodes.append(fresh)
            owners.append(-1)
            counts.append(1)
            reseed_count += 1
            count += 1
            continue
        recruiter = nodes[head]
        head += 1
        neighbors = indices[indptr[recruiter]:indptr[recruiter + 1]]
        open_nbrs = neighbors[is_open[neighbors]]
        size = open_nbrs.size
        budget = n_target - count
        if coupons < budget:
            budget = coupons
        if size < budget:
            budget = size
        if budget <= 0:
            continue
        # partial Fisher-Yates on positions of open_nbrs, a uniform ordered draw without replacement;
        # moved[p] is the position that a swap put at p
        first = count - num_seeds
        moved = {}
        for t in range(budget):
            j = t + int(uniforms[first + t] * (size - t))
            node = open_nbrs.item(moved.get(j, j))
            moved[j] = moved.get(t, t)
            is_open[node] = False
            nodes.append(node)
        owners.append(head - 1)
        counts.append(budget)
        count += budget

    node_arr = np.asarray(nodes, dtype=np.int64)
    recruiters, waves, seed_ids, coupon_indices = _recruitment_columns(node_arr, num_seeds, owners, counts)
    return RecruitmentForest(
        nodes=node_arr,
        recruiters=recruiters,
        waves=waves,
        seed_ids=seed_ids,
        coupon_indices=coupon_indices,
        degrees=graph.degrees[node_arr],
        attributes=z[node_arr],
        attribute_names=attribute_names,
        truncated=truncated,
        reseed_count=reseed_count,
    )


def _recruitment_columns(nodes: np.ndarray, num_seeds: int, owners: list[int], counts: list[int]):
    """Recruiters, waves, seed ids and coupon indices of a run's entries, built from its records.

    The first ``num_seeds`` entries are the seeds. Record r then holds the next ``counts[r]``
    entries, which entry ``owners[r]`` recruited in coupon order; owner -1 marks a reseed,
    with one entry. Every owner is an earlier entry.
    """
    size = nodes.size
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.full(size, -1, dtype=np.int64)
    owner[num_seeds:] = np.repeat(np.asarray(owners, dtype=np.int64), counts)
    seed = owner < 0
    recruiters = np.where(seed, -1, nodes[owner])
    # an entry's coupon index is its offset from the first entry of its record
    coupon_indices = np.full(size, -1, dtype=np.int64)
    coupon_indices[num_seeds:] = np.arange(size - num_seeds) - np.repeat(np.cumsum(counts) - counts, counts)
    coupon_indices[seed] = -1
    # pointer doubling: waves[e] recruitments lead from up[e] down to e, and a seed entry is its own
    # up at distance 0; each pass doubles the distances, until every up is a seed entry
    up = np.where(seed, np.arange(size), owner)
    waves = (~seed).astype(np.int64)
    while True:
        further = up[up]
        if np.array_equal(further, up):
            break
        waves += waves[up]
        up = further
    seed_ids = (np.cumsum(seed) - 1)[up]
    return recruiters, waves, seed_ids, coupon_indices


FOREST_COLUMNS = ("node", "recruiter", "wave", "seed_id", "coupon_index", "degree")


def write_forest(forest: RecruitmentForest, path) -> None:
    """Write a forest as CSV: ``node,recruiter,wave,seed_id,coupon_index,degree,<attrs>``.

    Recruiter and coupon_index cells are empty for seeds.
    """
    seed = forest.recruiters < 0
    columns = [forest.nodes, np.where(seed, None, forest.recruiters), forest.waves, forest.seed_ids]
    columns += [np.where(seed, None, forest.coupon_indices), forest.degrees, *forest.attributes.T]
    write_table(path, FOREST_COLUMNS + forest.attribute_names, zip(*(c.tolist() for c in columns)))


def _check_recruitment(forest: RecruitmentForest) -> np.ndarray:
    """Raise ``ValueError`` unless ``forest`` holds its graph-free invariants; return recruiter entries."""
    nodes, waves, seed_ids, coupons = forest.nodes, forest.waves, forest.seed_ids, forest.coupon_indices
    order = np.argsort(nodes)
    ranked = nodes[order]
    if not forest.size or ranked[0] < 0 or np.any(ranked[1:] == ranked[:-1]):
        raise ValueError("nodes must be one or more distinct nonnegative indices")
    seeds = forest.recruiters == -1
    recruits = np.flatnonzero(~seeds)
    wanted = forest.recruiters[recruits]
    at = order[np.minimum(np.searchsorted(ranked, wanted), forest.size - 1)]
    late = (nodes[at] != wanted) | (at >= recruits)  # the recruiter is absent or no earlier entry
    if np.any(late):
        entry = int(recruits[np.argmax(late)])
        raise ValueError(f"entry {entry}: recruiter {forest.recruiters[entry]} is not an earlier entry")
    if np.any(waves[recruits] != waves[at] + 1) or np.any(seed_ids[recruits] != seed_ids[at]):
        raise ValueError("a recruit needs its recruiter's wave + 1 and its recruiter's seed_id")
    if np.any(waves[seeds] != 0) or np.any(coupons[seeds] != -1):
        raise ValueError("a seed needs wave 0 and an empty coupon_index")
    if min(seed_ids.min(), forest.degrees.min(), coupons[recruits].min(initial=0)) < 0:
        raise ValueError("seed_id, degree and a recruit's coupon_index must be nonnegative")
    return at


def read_forest(path) -> RecruitmentForest:
    """Read a forest CSV written by :func:`write_forest`.

    The file must hold the invariants of :class:`RecruitmentForest`. Run
    metadata that is not part of the file format (truncation flag, reseed
    count) resets to its defaults.
    """
    names, table = read_table(path, FOREST_COLUMNS, named=True)
    fixed = len(FOREST_COLUMNS)
    with in_file(path):
        return RecruitmentForest(*table[:, :fixed].T, table[:, fixed:], names)
