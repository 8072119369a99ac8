"""Seeded workloads for the chainmetric CLI benchmark.

A workload is a repeating pattern of op kinds.  Op ``i`` of a run is built
from its own generator, seeded by ``(seed, workload, i)``, so the same seed
always yields the same commands and the program only ever sees the
generated arguments.  Each op carries a check that parses the command's
stdout with this module's own code and raises ``CheckFailed`` when the
output is wrong.

Why the patterns are uneven: within a workload the op kinds differ in cost
by up to 100x, so the latency distribution is a stack of bands, one per
kind.  With equal shares the median or the 90th percentile would sit on
the gap between two bands and jump by a band width from run to run.  The
shares below put both percentiles inside a band.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

FMT = "{:.17g}"

# Endpoint norms of the beyond-cap probes: past a_{10^6} ~ 14.39, the
# largest sphere radius the program indexes.
CAP_NORM_RANGE = (14.4, 30.0)


class CheckFailed(Exception):
    """A command's output failed one of the benchmark's own checks."""


@dataclass
class Op:
    """One CLI invocation and the check of its stdout.

    ``check(stdout)`` raises ``CheckFailed`` or returns the op's bracket gap
    (upper minus analytic lower bound), or None when the op has no bracket.
    """

    kind: str
    args: list
    check: Callable[[str], Optional[float]]


@dataclass
class Probe:
    """A command that exhibits a known defect; ``reproduces(result)`` tells
    whether this run still shows it."""

    kind: str
    args: list
    reproduces: Callable


@dataclass
class Workload:
    name: str
    pattern: list
    make_op: Callable  # (kind, rng, env, index) -> Op
    make_probe: Optional[Callable] = None  # (rng) -> Probe
    probes: int = 0  # known-defect probes per run
    prepare: Optional[Callable] = None  # (rng, workdir) -> env
    final_checks: Optional[Callable] = None  # (runner, main, env, rng) -> list of failures
    expect_calls: list = field(default_factory=list)
    expect_no_calls: list = field(default_factory=list)


def fmt_point(p) -> str:
    return ",".join(FMT.format(float(v)) for v in p)


def parse_point(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def harmonic(m: int) -> float:
    """a_m = 1 + 1/2 + ... + 1/m."""
    return float(np.cumsum(1.0 / np.arange(1, m + 1))[-1])


def direction(rng, dim: int) -> np.ndarray:
    u = rng.normal(size=dim)
    return u / np.linalg.norm(u)


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def analytic_floor(x, y) -> float:
    """min(d(x,y), max over endpoints of 1/(2(1+|p|))), origin anchor."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    floor = max(1.0 / (2.0 * (1.0 + np.linalg.norm(x))),
                1.0 / (2.0 * (1.0 + np.linalg.norm(y))))
    return min(float(np.linalg.norm(x - y)), floor)


def occurrence(pattern: list, kind: str, index: int) -> int:
    """How many ops of ``kind`` come before op ``index`` of the stream."""
    cycles, offset = divmod(index, len(pattern))
    return cycles * pattern.count(kind) + pattern[:offset].count(kind)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# finite-oracle

ORACLE_POINTS = 80
ORACLE_POOL = 16  # spaces per run, half of each shape, cycled
SMALL_SPACES = (5, 6, 7, 8)  # sizes of the brute-force cross-check spaces


def euclid_cloud(rng, n: int) -> np.ndarray:
    """Points of R^3 with log-uniform spread, so far pairs take the detour."""
    X = np.array([direction(rng, 3) * log_uniform(rng, 0.05, 50.0) for _ in range(n)])
    return np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)


def graph_metric(rng, n: int) -> np.ndarray:
    """Shortest-path completion of random log-uniform edge weights."""
    W = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=(n, n)))
    D = np.triu(W, 1)
    D = D + D.T
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    return D


def write_space(path: Path, D: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"{len(D)}\n")
        for row in D:
            fh.write(" ".join(FMT.format(v) for v in row) + "\n")


def parse_matrix(stdout: str, n: int) -> np.ndarray:
    lines = stdout.splitlines()
    if not lines or lines[0].strip() != str(n) or len(lines) != n + 1:
        raise CheckFailed(f"oracle output is not a {n}x{n} matrix")
    M = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    if M.shape != (n, n):
        raise CheckFailed(f"oracle output has shape {M.shape}")
    return M


def check_transform(M: np.ndarray, D: np.ndarray) -> None:
    """Symmetric, zero diagonal, never above D, triangle inequality."""
    tol = 1e-12 * max(1.0, float(D.max()))
    if np.any(np.abs(np.diag(M)) > 0.0):
        raise CheckFailed("nonzero diagonal")
    if np.any(np.abs(M - M.T) > tol):
        raise CheckFailed("asymmetric result")
    if np.any(M > D + tol):
        raise CheckFailed("result exceeds the base metric")
    if np.any(M < 0.0):
        raise CheckFailed("negative distance")
    via = np.min(M[:, :, None] + M[None, :, :], axis=1)
    if np.any(M > via + tol):
        raise CheckFailed("triangle inequality violated")


def _oracle_prepare(rng, workdir: Path) -> dict:
    spaces = []
    for s in range(ORACLE_POOL):
        shape = "cloud" if s % 2 == 0 else "graph"
        D = (euclid_cloud if shape == "cloud" else graph_metric)(rng, ORACLE_POINTS)
        path = workdir / f"space{s:02d}-{shape}.txt"
        write_space(path, D)
        spaces.append((shape, path, D))
    return {"spaces": spaces}


def _oracle_op(kind, rng, env, index) -> Op:
    _, path, D = env["spaces"][index % ORACLE_POOL]
    anchor = int(rng.integers(len(D)))

    def check(stdout):
        check_transform(parse_matrix(stdout, len(D)), D)
        return None

    return Op(kind, ["oracle", str(path), "--anchor", str(anchor)], check)


def _oracle_final_checks(runner, main, env, rng) -> list:
    """Small spaces from the same generators go through the same command and
    must equal the brute-force chain enumeration."""
    from chainmetric.finite import FiniteSpace, dphi_bruteforce

    failures = []
    workdir = env["workdir"]
    for t, n in enumerate(SMALL_SPACES):
        D = (euclid_cloud if t % 2 == 0 else graph_metric)(rng, n)
        anchor = int(rng.integers(n))
        path = workdir / f"small{t}.txt"
        write_space(path, D)
        result = runner.invoke(main, ["oracle", str(path), "--anchor", str(anchor)])
        try:
            if result.exit_code != 0:
                raise CheckFailed(f"exit {result.exit_code}")
            M = parse_matrix(result.stdout, n)
            check_transform(M, D)
            space = FiniteSpace(distances=D, anchor_index=anchor)
            B = dphi_bruteforce(space.context(), space).values
            if np.any(np.abs(M - B) > 1e-12 * max(1.0, float(D.max()))):
                raise CheckFailed("differs from dphi_bruteforce")
        except CheckFailed as exc:
            failures.append(f"small space n={n}: {exc}")
    return failures


# --------------------------------------------------------------------------
# euclid-dist


def dist_endpoint(rng, dim: int) -> np.ndarray:
    """Norm log-uniform in [0.3, 14], or exactly on a harmonic sphere."""
    if rng.random() < 0.25:
        m = int(log_uniform(rng, 1.0, 2000.0))
        return harmonic(m) * direction(rng, dim)
    return log_uniform(rng, 0.3, 14.0) * direction(rng, dim)


def _weight_args(weight: str, delta: Optional[float]) -> list:
    if weight == "ray_psi":
        return ["--weight", "ray_psi", "--delta", FMT.format(delta)]
    return ["--weight", "std_phi"]


def _dist_check(weight, delta, dim, x, y):
    def check(stdout):
        from chainmetric.core import Chain, chain_cost
        from chainmetric.rays import ConeParam
        from chainmetric.sampler import euclid_context

        fields = dict(line.split(" ", 1) for line in stdout.splitlines())
        try:
            lower, upper, cap = (float(fields[k]) for k in ("lower", "upper", "delta"))
            witness = [parse_point(p) for p in fields["witness"].split(" | ")]
        except (KeyError, ValueError) as exc:
            raise CheckFailed(f"unparsable dist output: {exc}")
        if not (lower <= upper * (1 + 1e-12) and upper <= cap * (1 + 1e-12)):
            raise CheckFailed(f"bracket out of order: {lower} {upper} {cap}")
        if not (np.array_equal(witness[0], x) and np.array_equal(witness[-1], y)):
            raise CheckFailed("witness does not join the query points")
        cone = ConeParam(delta=delta, dim=dim) if weight == "ray_psi" else None
        ctx = euclid_context(weight, cone=cone, dim=dim)
        cost = chain_cost(ctx, Chain(witness))
        if not _close(cost, upper, 1e-9):
            raise CheckFailed(f"witness costs {cost}, upper is {upper}")
        return upper - lower

    return check


def _dist_op(kind, rng, env, index) -> Op:
    _, weight, dim = kind.split("-")
    weight = {"phi": "std_phi", "psi": "ray_psi"}[weight]
    dim = int(dim)
    x, y = dist_endpoint(rng, dim), dist_endpoint(rng, dim)
    if env.get("warmup"):
        # The warm-up query reaches the top of the norm range, so the
        # lazily grown harmonic-radius table is at full size before timing.
        x = 14.0 * x / np.linalg.norm(x)
    # A fresh cone per query: nothing is shared between ray_psi queries,
    # as in separate CLI processes.
    delta = float(rng.uniform(0.2, 0.7)) if weight == "ray_psi" else None
    args = _weight_args(weight, delta) + ["dist", "--", fmt_point(x), fmt_point(y)]
    return Op(kind, args, _dist_check(weight, delta, dim, x, y))


def _dist_probe(rng) -> Probe:
    """A query with one endpoint beyond the sphere index cap: today a
    ValueError traceback with exit 1."""
    weight = "ray_psi" if rng.random() < 0.5 else "std_phi"
    dim = int(rng.integers(2, 4))
    x = rng.uniform(*CAP_NORM_RANGE) * direction(rng, dim)
    y = dist_endpoint(rng, dim)
    delta = float(rng.uniform(0.2, 0.7)) if weight == "ray_psi" else None
    args = _weight_args(weight, delta) + ["dist", "--", fmt_point(x), fmt_point(y)]

    def reproduces(result):
        return (result.exit_code == 1 and isinstance(result.exception, ValueError)
                and "beyond sphere index cap" in str(result.exception))

    return Probe("dist-beyond-cap", args, reproduces)


# --------------------------------------------------------------------------
# euclid-sweep

SWEEP_DELTA = "0.6"
CONVERGE_LEVELS = "3"


def sweep_endpoint(rng) -> np.ndarray:
    return log_uniform(rng, 0.5, 8.0) * direction(rng, 2)


def _converge_check(x, y):
    def check(stdout):
        lines = stdout.splitlines()
        if not lines or lines[0] != "level,node_count,upper_bound":
            raise CheckFailed("missing converge header")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != int(CONVERGE_LEVELS):
            raise CheckFailed(f"{len(rows)} converge rows")
        counts = [int(r[1]) for r in rows]
        values = [float(r[2]) for r in rows]
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise CheckFailed("node counts shrink across levels")
        if any(b > a for a, b in zip(values, values[1:])):
            raise CheckFailed(f"upper bounds not monotone: {values}")
        floor = analytic_floor(x, y)
        if values[-1] < floor * (1 - 1e-12):
            raise CheckFailed("upper bound below the analytic floor")
        return values[-1] - floor

    return check


def _noneq_check(horizon):
    def check(stdout):
        head, _, tail = stdout.partition("{")
        lines = head.splitlines()
        if not lines or lines[0] != "i,a_i,psi_measured,psi_floor,phi_measured,phi_cap":
            raise CheckFailed("missing noneq header")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if rows.shape != (horizon, 6):
            raise CheckFailed(f"noneq table has shape {rows.shape}")
        summary = json.loads("{" + tail)
        if summary.get("verdict") != "non-equivalent":
            raise CheckFailed(f"verdict {summary.get('verdict')!r}")
        return float(np.mean(rows[:, 2] - rows[:, 3]))

    return check


def _rays_check(samples):
    def check(stdout):
        lines = stdout.splitlines()
        if len(lines) != samples:
            raise CheckFailed(f"{len(lines)} ray rows for {samples} samples")
        for line in lines:
            sep, floor = (float(v) for v in line.split()[-2:])
            if sep < floor - 1e-9:
                raise CheckFailed(f"ray separation {sep} below floor {floor}")
        return None

    return check


def _sweep_op(kind, rng, env, index) -> Op:
    seed = ["--seed", str(int(rng.integers(2**31)))]
    if kind.startswith("converge"):
        x, y = sweep_endpoint(rng), sweep_endpoint(rng)
        weight = {"converge-phi": "std_phi", "converge-psi": "ray_psi"}[kind]
        args = (_weight_args(weight, float(SWEEP_DELTA)) + seed
                + ["converge", "--levels", CONVERGE_LEVELS, "--", fmt_point(x), fmt_point(y)])
        return Op(kind, args, _converge_check(x, y))
    if kind.startswith("noneq"):
        # Horizons 10..20 in turn, so every run holds the same spread of sizes.
        horizon = 10 + occurrence(SWEEP_PATTERN, kind, index) % 11
        dim = kind[-1]
        args = seed + ["noneq", "--delta", SWEEP_DELTA, "--horizon", str(horizon), "-s", dim]
        return Op(kind, args, _noneq_check(horizon))
    samples = int(rng.integers(600, 1201))
    args = seed + ["rays", "--samples", str(samples), "--delta", SWEEP_DELTA, "-s", kind[-1]]
    return Op(kind, args, _rays_check(samples))


def _sweep_probe(rng) -> Probe:
    """Structured-mode refinement between far points (norms 4 to 12): today
    the upper bound rises across levels for many such pairs and the command
    exits 1 with a monotonicity violation."""
    x, y = (log_uniform(rng, 4.0, 12.0) * direction(rng, 2) for _ in range(2))
    args = ["--mode", "structured", "converge", "--levels", CONVERGE_LEVELS,
            "--", fmt_point(x), fmt_point(y)]

    def reproduces(result):
        return result.exit_code == 1 and "monotonicity violation" in result.stderr

    return Probe("converge-structured", args, reproduces)


# --------------------------------------------------------------------------
# epsilon-net

NET_EPSILONS = ("0.99", "0.9", "0.8")


def _net_check(epsilon, samples):
    def check(stdout):
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith("# epsilon-net k="):
            raise CheckFailed("missing net header")
        centers = int(lines[0].rsplit("centers=", 1)[1])
        if len(lines) != centers + 2:
            raise CheckFailed(f"{len(lines) - 2} center rows for {centers} centers")
        report = json.loads(lines[-1])
        if report["samples"] != samples or report["covered"] != samples:
            raise CheckFailed(f"covered {report['covered']} of {samples}")
        if not report["max_min_distance"] < float(epsilon):
            raise CheckFailed("coverage distance not below epsilon")
        return None

    return check


def _net_op(kind, rng, env, index) -> Op:
    dim = kind[-1]
    epsilon = NET_EPSILONS[occurrence(NET_PATTERN, kind, index) % len(NET_EPSILONS)]
    if dim == "2":
        samples = int(rng.integers(150, 251))
    else:
        samples = int(rng.integers(24, 49))
    args = ["--seed", str(int(rng.integers(2**31))),
            "net", "--epsilon", epsilon, "-s", dim, "--samples", str(samples)]
    return Op(kind, args, _net_check(epsilon, samples))


# --------------------------------------------------------------------------

FINITE = ["finite.load_distance_matrix", "finite.link_table",
                     "finite.dphi_exact", "core.verify_metric_axioms"]
RAYS = ["rays.psi_matrix", "rays.ray_through", "rays.h_pq_ray"]
SAMPLER = ["sampler.build_sample", "sampler.build_graph", "sampler.link_matrix",
           "sampler.approx_dphi", "sampler.convergence_run", "sampler.net_solve"]

# One ray_psi 3-D op in five sets the 90th percentile; 2-D ray_psi ops hold
# the median.
DIST_PATTERN = ["dist-psi-2", "dist-phi-2", "dist-psi-3", "dist-phi-3", "dist-psi-2",
                "dist-phi-2", "dist-psi-2", "dist-psi-3", "dist-phi-2", "dist-psi-2"]
# 3-D noneq, the dearest kind, is one op in five, so the 90th percentile
# falls mid-band; 2-D ray_psi refinement holds the median.
SWEEP_PATTERN = ["converge-psi", "rays-3", "converge-phi", "noneq-3", "converge-psi",
                 "noneq-2", "converge-phi", "rays-2", "converge-psi", "noneq-3"]
# 3-D nets cost 15-50x a 2-D net; one in eight puts the 90th percentile on
# them while a run still holds over a hundred ops.  Each cycle holds one 3-D
# net per epsilon, so whole cycles carry the same mix of net sizes.
NET_PATTERN = (["net-2"] * 4 + ["net-3"] + ["net-2"] * 3) * len(NET_EPSILONS)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="finite-oracle",
            pattern=["oracle-cloud", "oracle-graph"] * (ORACLE_POOL // 2),
            make_op=_oracle_op,
            prepare=_oracle_prepare,
            final_checks=_oracle_final_checks,
            expect_calls=["core.delta"] + FINITE,
            expect_no_calls=RAYS + SAMPLER + ["std_map.phi_std_matrix", "std_map.sphere_index",
                                              "std_map.epsilon_net",
                                              "completion.nonequivalence_experiment"],
        ),
        Workload(
            name="euclid-dist",
            pattern=DIST_PATTERN,
            make_op=_dist_op,
            make_probe=_dist_probe,
            probes=2,  # 1 in 20 of a 40-op window
            expect_calls=["sampler.build_sample", "sampler.build_graph",
                          "sampler.link_matrix", "sampler.approx_dphi",
                          "std_map.phi_std_matrix", "std_map.sphere_index",
                          "rays.psi_matrix", "rays.ray_through", "core.delta"],
            expect_no_calls=FINITE + [
                "std_map.epsilon_net", "sampler.net_solve", "sampler.convergence_run",
                "rays.h_pq_ray", "completion.nonequivalence_experiment"],
        ),
        Workload(
            name="euclid-sweep",
            pattern=SWEEP_PATTERN,
            make_op=_sweep_op,
            make_probe=_sweep_probe,
            probes=5,  # 1 in 8 of a 40-op window
            expect_calls=["sampler.convergence_run", "sampler.build_sample",
                          "sampler.build_graph", "sampler.link_matrix",
                          "sampler.approx_dphi", "std_map.phi_std_matrix",
                          "std_map.sphere_index", "completion.nonequivalence_experiment"]
            + RAYS,
            expect_no_calls=FINITE + ["core.delta", "std_map.epsilon_net",
                                                 "sampler.net_solve"],
        ),
        Workload(
            name="epsilon-net",
            pattern=NET_PATTERN,
            make_op=_net_op,
            expect_calls=["std_map.epsilon_net", "sampler.net_solve",
                          "sampler.link_matrix", "std_map.phi_std_matrix",
                          "std_map.sphere_index"],
            expect_no_calls=FINITE + RAYS + [
                "core.delta", "sampler.build_sample", "sampler.build_graph",
                "sampler.approx_dphi", "sampler.convergence_run",
                "completion.nonequivalence_experiment"],
        ),
    ]
}
