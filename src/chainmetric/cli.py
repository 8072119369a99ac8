"""Command-line front end: certified distance brackets, exact finite-space
matrices, epsilon nets, convergence tables and the non-equivalence run.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  All reals print with 17 significant digits so identical configs and
seeds reproduce byte-identical outputs.  Exit status: 0 when every internal
certificate holds, 1 on a certificate violation, 2 on a config error.
"""
from __future__ import annotations

import contextlib
import json
import sys

import click
import numpy as np

from .completion import nonequivalence_experiment
from .core import certificate, lower_bound_certificate
from .finite import FiniteSpace, dphi_exact, load_distance_matrix
from .rays import ConeParam, boundary_map_h_ray, ray_distance, ray_of
from .sampler import (
    SamplerConfig,
    approx_dphi,
    build_graph,
    build_sample,
    convergence_run,
    euclid_context,
    make_net_solver,
)
from .std_map import (
    boundary_map_h_std,
    boundary_map_k_std,
    epsilon_net,
    sphere_bracket,
)

FMT = "{:.17g}"
# Center rows that ``net`` formats and writes at a time.
NET_BLOCK = 2**16


def _parse_point(text: str) -> np.ndarray:
    try:
        point = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise click.UsageError(f"cannot parse point {text!r}; expected 'x1,x2,...'")
    if not np.all(np.isfinite(point)):
        raise click.UsageError(f"point {text!r} has a non-finite coordinate")
    return point


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise click.UsageError(f"bad config: {path} does not hold a JSON object")
    return cfg


def _merged(cfg: dict, **flags) -> dict:
    out = dict(cfg)
    for k, v in flags.items():
        if v is not None:
            out[k] = v
    return out


def _sampler_config(opts: dict, dim: int) -> SamplerConfig:
    return SamplerConfig(
        dimension=dim,
        max_sphere_index=int(opts.get("max_sphere_index", 5)),
        angular_resolution=float(opts.get("angular_resolution", 0.5)),
        radial_steps=int(opts.get("radial_steps", 2)),
        seed=int(opts.get("seed", 0)),
    )


def _context(opts: dict, dim: int):
    kind = opts.get("weight_kind", "std_phi")
    if kind == "ray_psi":
        cone = ConeParam(delta=float(opts.get("delta", 0.6)), dim=dim)
        return euclid_context("ray_psi", cone=cone, dim=dim)
    return euclid_context("std_phi", dim=dim)


@contextlib.contextmanager
def _writer(output):
    """A function that writes text to the ``--output`` file, or to stdout."""
    if output:
        with open(output, "w") as fh:
            yield fh.write
    else:
        yield lambda text: click.echo(text, nl=False)


def _emit(text: str, output) -> None:
    with _writer(output) as write:
        write(text)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file; flags override its entries")
@click.option("--seed", type=int, default=None)
@click.option("--weight", "weight_kind", type=click.Choice(["std_phi", "ray_psi"]),
              default=None)
@click.option("--delta", type=float, default=None, help="cone half-angle (ray weight)")
@click.option("--resolution", "angular_resolution", type=float, default=None)
@click.option("--spheres", "max_sphere_index", type=int, default=None)
@click.option("--radial-steps", type=int, default=None)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def main(ctx, config_path, **flags):
    """Chain-infimum metric transform toolkit."""
    try:
        ctx.obj = _merged(_load_config(config_path), **flags)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad config: {exc}")


# Points are positional, so one with a negative first coordinate looks like
# an option; unknown options are therefore passed on as arguments, where a
# misspelt option still fails as an extra argument or an unparsable point.
POINT_ARGS = {"ignore_unknown_options": True}


@main.command(context_settings=POINT_ARGS)
@click.argument("x")
@click.argument("y")
@click.pass_obj
def dist(opts, x, y):
    """Certified bracket and witness chain for a pair of points."""
    px, py = _parse_point(x), _parse_point(y)
    if len(px) != len(py):
        raise click.UsageError("points must share a dimension")
    try:
        ectx = _context(opts, len(px))
        cfg = _sampler_config(opts, len(px))
        nodes = build_sample(cfg, [px, py], ectx.weight_kind, ectx.cone)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    graph = build_graph(ectx, nodes)
    value, witness = approx_dphi(graph, px, py)
    lower = lower_bound_certificate(ectx, px, py)
    cert = certificate(ectx, px, py)
    lines = [
        "lower " + FMT.format(lower),
        "upper " + FMT.format(value),
        "delta " + FMT.format(cert.upper),
        "witness " + " | ".join(
            ",".join(FMT.format(v) for v in p) for p in witness.points
        ),
    ]
    _emit("\n".join(lines) + "\n", opts.get("output"))
    if not (lower <= value + 1e-12 and value <= cert.upper + 1e-12):
        click.echo("certificate violation", err=True)
        sys.exit(1)


@main.command()
@click.argument("matrix_file", type=click.Path(exists=True))
@click.option("--anchor", type=int, default=0, show_default=True)
@click.pass_obj
def oracle(opts, matrix_file, anchor):
    """Exact transformed-distance matrix for a finite space file."""
    try:
        D = load_distance_matrix(matrix_file)
        space = FiniteSpace(distances=D, anchor_index=anchor)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    result = dphi_exact(space.context(), space)
    n = len(space)
    lines = [str(n)]
    for row in result.values:
        lines.append(" ".join(FMT.format(v) for v in row))
    _emit("\n".join(lines) + "\n", opts.get("output"))


@main.command()
@click.option("--epsilon", type=float, required=True)
@click.option("--dimension", "-s", type=int, default=2, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=10_000,
              show_default=True)
@click.option("--verify/--no-verify", default=True, show_default=True)
@click.pass_obj
def net(opts, epsilon, dimension, samples, verify):
    """Constructive epsilon-net of the transformed plane, with coverage check."""
    if not 0.0 < epsilon < 1.0:
        raise click.UsageError(f"epsilon must be in (0, 1), got {epsilon}")
    if dimension < 2:
        raise click.UsageError(f"dimension must be >= 2, got {dimension}")
    seed = int(opts.get("seed", 0))
    from .std_map import net_index

    solver = make_net_solver(net_index(epsilon)) if verify else None
    result = epsilon_net(
        epsilon, dimension, solver=solver, samples=samples,
        rng=np.random.default_rng(seed),
    )
    row = "%d," + ",".join(["%.17g"] * dimension) + "\n"  # FMT's format, one % per center
    with _writer(opts.get("output")) as write:
        write(f"# epsilon-net k={result.k} centers={len(result.centers)}\n")
        for lo in range(0, len(result.centers), NET_BLOCK):
            block = result.centers[lo:lo + NET_BLOCK].tolist()
            write("".join([row % (i, *c) for i, c in enumerate(block, lo)]))
        if result.verification:
            write(json.dumps(result.verification) + "\n")
    if verify and result.verification["covered"] < result.verification["samples"]:
        click.echo("coverage violation", err=True)
        sys.exit(1)


@main.command(context_settings=POINT_ARGS)
@click.argument("x")
@click.argument("y")
@click.option("--levels", type=int, default=4, show_default=True)
@click.pass_obj
def converge(opts, x, y, levels):
    """Refinement table of shortest-path upper bounds."""
    px, py = _parse_point(x), _parse_point(y)
    if len(px) != len(py):
        raise click.UsageError("points must share a dimension")
    if levels < 1:
        raise click.UsageError(f"levels must be >= 1, got {levels}")
    try:
        ectx = _context(opts, len(px))
        cfg = _sampler_config(opts, len(px))
        for n in (np.linalg.norm(px), np.linalg.norm(py)):
            if n > 1.0:
                sphere_bracket(float(n))  # raises beyond the last sphere
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = convergence_run(ectx, px, py, levels, cfg)
    lines = ["level,node_count,upper_bound"]
    for level, count, value in rows:
        lines.append(f"{level},{count}," + FMT.format(value))
    _emit("\n".join(lines) + "\n", opts.get("output"))
    values = [r[2] for r in rows]
    if any(values[i + 1] > values[i] + 1e-12 for i in range(len(values) - 1)):
        click.echo("monotonicity violation", err=True)
        sys.exit(1)


@main.command()
@click.option("--delta", type=float, default=0.6, show_default=True)
@click.option("--horizon", type=int, default=20, show_default=True)
@click.option("--dimension", "-s", type=int, default=2, show_default=True)
@click.pass_obj
def noneq(opts, delta, horizon, dimension):
    """Non-equivalence experiment between the two compactifications."""
    try:
        report = nonequivalence_experiment(
            delta, horizon, s=dimension, seed=int(opts.get("seed", 0))
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    import io

    buf = io.StringIO()
    report.to_csv(buf)
    buf.write(report.to_json() + "\n")
    _emit(buf.getvalue(), opts.get("output"))
    if report.verdict != "non-equivalent":
        click.echo("certificate violation", err=True)
        sys.exit(1)


@main.command()
@click.option("--map", "which", type=click.Choice(["h", "k", "h-ray"]), required=True)
@click.argument("point")
@click.pass_obj
def boundary(opts, which, point):
    """Evaluate a boundary parameterization map at a point."""
    p = _parse_point(point)
    try:
        if which == "h":
            rep = boundary_map_h_std(p)
            out = f"{rep.kind} " + ",".join(FMT.format(v) for v in rep.point)
        elif which == "k":
            rep = boundary_map_h_std(p)
            back = boundary_map_k_std(rep)
            out = "ball " + ",".join(FMT.format(v) for v in back)
        else:
            cone = ConeParam(delta=float(opts.get("delta", 0.6)), dim=len(p))
            rep = boundary_map_h_ray(p, cone)
            out = f"{rep.kind} " + ",".join(FMT.format(v) for v in rep.point)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(out + "\n", opts.get("output"))


@main.command("rays")
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--delta", type=float, default=0.6, show_default=True)
@click.option("--dimension", "-s", type=int, default=3, show_default=True)
@click.pass_obj
def rays_cmd(opts, samples, delta, dimension):
    """Ray-separation sweep: nearest ray distance against the analytic floor."""
    try:
        cone = ConeParam(delta=delta, dim=dimension)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rng = np.random.default_rng(int(opts.get("seed", 0)))
    factor = 1.0 / (2.0 * np.sqrt(2.0))
    lines = []
    violations = 0
    for _ in range(samples):
        u = rng.normal(size=(2, dimension))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r1, r2 = ray_of(u[0], cone), ray_of(u[1], cone)
        sep = ray_distance(r1, r2)
        floor = factor * float(np.linalg.norm(u[0] - u[1]))
        if sep < floor - 1e-9:
            violations += 1
        coords = list(r1.base) + list(r1.direction) + list(r2.base) + list(r2.direction)
        lines.append(" ".join(FMT.format(v) for v in coords)
                     + " " + FMT.format(sep) + " " + FMT.format(floor))
    _emit("\n".join(lines) + "\n", opts.get("output"))
    if violations:
        click.echo(f"{violations} separation violations", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
