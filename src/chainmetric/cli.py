"""Command-line front end: certified distance brackets, exact finite-space
matrices, epsilon nets, convergence tables and the non-equivalence run.

Settings are the group's flags or the entries of a JSON config file named
and parsed as they are (flags win), with the defaults of ``SamplerConfig``
and ``ConeParam``.  All reals print with 17 significant digits so identical
settings reproduce byte-identical outputs.  Exit status: 0 when every
internal certificate holds, 1 on a certificate violation, 2 on bad input.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import click
import numpy as np

from .completion import nonequivalence_experiment
from .core import certificate, delta
from .finite import FiniteSpace, dphi_exact, load_distance_matrix
from .rays import (ConeParam, RayResidualError, boundary_map_h_ray, ray_directions,
                   ray_distances)
from .sampler import (
    EuclidContext,
    SamplerConfig,
    approx_dphi,
    build_graph,
    build_sample,
    check_sample,
    convergence_run,
    euclid_context,
    make_net_solver,
)
from .std_map import _row_norms, boundary_map_h_std, boundary_map_k_std, epsilon_net, net_plan

FMT = "{:.17g}"
# Rows of the ``net`` and ``rays`` tables computed and written at a time.
TABLE_BLOCK = 2**16
# The most samples ``net`` checks.  It holds some 16(s + 1) bytes per sample
# (directions, norms, points, bounds): from 2e5 to 8e5 samples, peak RSS rose
# 48 bytes per sample in 2-D and 62 in 3-D, so 10^7 peak near 0.5 and 0.7 GB.
MAX_NET_SAMPLES = 10**7


def _parse_point(text: str) -> np.ndarray:
    try:
        point = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise click.UsageError(f"cannot parse point {text!r}; expected 'x1,x2,...'")
    if not np.all(np.isfinite(point)):
        raise click.UsageError(f"point {text!r} has a non-finite coordinate")
    return point


def _load_config(ctx, param, path):
    """Eager ``--config`` callback: the file's JSON object becomes the group's
    default map, so each entry is parsed by its option's type; numbers, only
    for number-typed options, go in as text, so 2.7 fails for an int option."""
    if path is None:
        return
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.BadParameter(str(exc), ctx, param)
    if not isinstance(cfg, dict):
        raise click.BadParameter(f"{path} does not hold a JSON object", ctx, param)
    options = {p.name: p for p in ctx.command.params if p is not param}
    ctx.default_map = {}
    for key, value in cfg.items():
        if key not in options:
            raise click.BadParameter(f"unknown key {key!r}", ctx, param)
        numeric = isinstance(options[key].type, (click.types.IntParamType,
                                                 click.types.FloatParamType))
        if not (isinstance(value, str) or numeric):
            raise click.BadParameter(f"bad value {value!r} for key {key!r}", ctx, param)
        try:
            ctx.default_map[key] = options[key].type.convert(str(value), options[key], ctx)
        except click.BadParameter as exc:
            raise click.BadParameter(f"key {key!r}: {exc.message}", ctx, param)


def _sampler_config(opts: dict, dim: int) -> SamplerConfig:
    keys = ("max_sphere_index", "angular_resolution", "radial_steps", "seed")
    return SamplerConfig(dimension=dim, **{key: opts[key] for key in keys})


def _context(opts: dict, dim: int) -> EuclidContext:
    kind = opts["weight_kind"]
    cone = ConeParam(delta=opts["delta"], dim=dim) if kind == "ray_psi" else None
    return euclid_context(kind, cone=cone, dim=dim)


@contextlib.contextmanager
def _writer(output):
    """A function that writes text to the ``--output`` file, or to stdout."""
    if output:
        try:
            fh = open(output, "w")
        except OSError as exc:
            raise click.UsageError(f"cannot write --output: {exc}")
        with fh:
            yield fh.write
    else:
        yield lambda text: click.echo(text, nl=False)


def _emit(text: str, output) -> None:
    with _writer(output) as write:
        write(text)


@contextlib.contextmanager
def _ray_certified():
    """A command under this decorator ends as a certificate violation (exit
    1, message on stderr) when a point lies off the ray found through it."""
    try:
        yield
    except RayResidualError as exc:
        click.echo(f"certificate violation: {exc}", err=True)
        sys.exit(1)


@click.group()
@click.option("--config", type=click.Path(exists=True), is_eager=True,
              expose_value=False, callback=_load_config,
              help="JSON config file keyed by option name; flags override its entries")
@click.option("--seed", type=click.IntRange(min=0), default=SamplerConfig.seed)
@click.option("--weight", "weight_kind", type=click.Choice(["std_phi", "ray_psi"]),
              default=EuclidContext.weight_kind)
@click.option("--delta", type=float, default=ConeParam.delta,
              help="cone half-angle (ray weight)")
@click.option("--resolution", "angular_resolution", type=float,
              default=SamplerConfig.angular_resolution)
@click.option("--spheres", "max_sphere_index", type=int,
              default=SamplerConfig.max_sphere_index)
@click.option("--radial-steps", type=int, default=SamplerConfig.radial_steps)
@click.option("--output", type=click.Path(), default=None)
@click.pass_context
def main(ctx, **opts):
    """Chain-infimum metric transform toolkit."""
    ctx.obj = opts


# Points are positional, so one with a negative first coordinate looks like
# an option; unknown options are therefore passed on as arguments, where a
# misspelt option still fails as an extra argument or an unparsable point.
POINT_ARGS = {"ignore_unknown_options": True}


@main.command(context_settings=POINT_ARGS)
@click.argument("x")
@click.argument("y")
@click.pass_obj
@_ray_certified()
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
    value, witness = approx_dphi(build_graph(ectx, nodes), px, py)
    cert = certificate(ectx, px, py)
    lines = [
        "lower " + FMT.format(cert.lower),
        "upper " + FMT.format(value),
        "delta " + FMT.format(cert.upper),
        "witness " + " | ".join(
            ",".join(FMT.format(v) for v in p) for p in witness.points
        ),
    ]
    _emit("\n".join(lines) + "\n", opts["output"])
    if not (cert.lower <= value + 1e-12 and value <= cert.upper + 1e-12):
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
    result = dphi_exact(space)
    n = len(space)
    row = " ".join(["%.17g"] * n) + "\n"  # FMT's format, one % per entry
    _emit("".join([f"{n}\n"] + [row % tuple(r) for r in result.values.tolist()]), opts["output"])
    # Spec certificate: each edge of the anchor's shortest-path tree, priced
    # by the scalar delta in its (i, j), i < j orientation, must extend the
    # distance of its tail to that of its head exactly, as the table is
    # bit-equal to delta.
    ctx, dist = space.context(), result.values[anchor].tolist()
    for v, u in enumerate(result.pred[anchor].tolist()):
        if u >= 0 and dist[v] != dist[u] + delta(ctx, min(u, v), max(u, v)):
            click.echo("certificate violation", err=True)
            sys.exit(1)


@main.command()
@click.option("--epsilon", type=float, required=True)
@click.option("--dimension", "-s", type=int, default=2, show_default=True)
@click.option("--samples", type=click.IntRange(min=1, max=MAX_NET_SAMPLES), default=10_000,
              show_default=True)
@click.option("--verify/--no-verify", default=True, show_default=True)
@click.pass_obj
def net(opts, epsilon, dimension, samples, verify):
    """Constructive epsilon-net of the transformed plane, with coverage check."""
    try:
        plan = net_plan(epsilon, dimension)
        plan.check()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    solver = make_net_solver() if verify else None
    result = epsilon_net(
        epsilon, dimension, solver=solver, samples=samples,
        rng=np.random.default_rng(opts["seed"]),
    )
    row = "%d," + ",".join(["%.17g"] * dimension) + "\n"  # FMT's format, one % per center
    with _writer(opts["output"]) as write:
        write(f"# epsilon-net k={result.k} centers={len(result.centers)}\n")
        for lo in range(0, len(result.centers), TABLE_BLOCK):
            block = result.centers[lo:lo + TABLE_BLOCK].tolist()
            write("".join([row % (i, *c) for i, c in enumerate(block, lo)]))
        if result.verification:
            write(json.dumps(result.verification) + "\n")
    # The sampled solve cross-checks the certificate's implementation.
    sampled = result.verification.get("max_min_distance", 0.0)
    if not sampled <= result.certified_radius < epsilon:
        click.echo("certificate violation", err=True)
        sys.exit(1)
    if verify and result.verification["covered"] < result.verification["samples"]:
        click.echo("coverage violation", err=True)
        sys.exit(1)


@main.command(context_settings=POINT_ARGS)
@click.argument("x")
@click.argument("y")
@click.option("--levels", type=int, default=4, show_default=True)
@click.pass_obj
@_ray_certified()
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
        check_sample(cfg, [px, py], levels)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = convergence_run(ectx, px, py, levels, cfg)
    lines = ["level,node_count,upper_bound"]
    for level, count, value in rows:
        lines.append(f"{level},{count}," + FMT.format(value))
    _emit("\n".join(lines) + "\n", opts["output"])
    values = [r[2] for r in rows]
    if any(values[i + 1] > values[i] + 1e-12 for i in range(len(values) - 1)):
        click.echo("monotonicity violation", err=True)
        sys.exit(1)


@main.command()
@click.option("--delta", type=float, show_default="the group's --delta")
@click.option("--horizon", type=int, default=20, show_default=True)
@click.option("--dimension", "-s", type=int, default=2, show_default=True)
@click.pass_obj
@_ray_certified()
def noneq(opts, delta, horizon, dimension):
    """Non-equivalence experiment between the two compactifications."""
    delta = opts["delta"] if delta is None else delta
    try:
        report = nonequivalence_experiment(delta, horizon, s=dimension, seed=opts["seed"])
    except ValueError as exc:
        raise click.UsageError(str(exc))
    buf = io.StringIO()
    report.to_csv(buf)
    buf.write(report.to_json() + "\n")
    _emit(buf.getvalue(), opts["output"])
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
        if which == "h-ray":
            rep = boundary_map_h_ray(p, ConeParam(delta=opts["delta"], dim=len(p)))
        else:
            rep = boundary_map_h_std(p)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    kind, x = ("ball", boundary_map_k_std(rep)) if which == "k" else (rep.kind, rep.point)
    _emit(f"{kind} " + ",".join(FMT.format(v) for v in x) + "\n", opts["output"])


@main.command("rays")
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--delta", type=float, show_default="the group's --delta")
@click.option("--dimension", "-s", type=int, default=3, show_default=True)
@click.pass_obj
def rays_cmd(opts, samples, delta, dimension):
    """Ray-separation sweep: nearest ray distance against the analytic floor."""
    try:
        cone = ConeParam(delta=opts["delta"] if delta is None else delta, dim=dimension)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rng = np.random.default_rng(opts["seed"])
    factor = 1.0 / (2.0 * np.sqrt(2.0))
    row = " ".join(["%.17g"] * (4 * dimension + 2)) + "\n"  # FMT's format, one % per pair
    violations = 0
    with _writer(opts["output"]) as write:
        for lo in range(0, samples, TABLE_BLOCK):  # block draws concatenate to one draw
            U = rng.normal(size=(min(TABLE_BLOCK, samples - lo), 2, dimension))
            U /= np.linalg.norm(U, axis=2)[..., None]
            D = ray_directions(U.reshape(-1, dimension), cone).reshape(U.shape)
            U0, D0, U1, D1 = U[:, 0], D[:, 0], U[:, 1], D[:, 1]
            sep = ray_distances(U0, D0, U1, D1)
            floor = factor * _row_norms(U0 - U1)
            violations += int(np.count_nonzero(sep < floor - 1e-9))
            table = np.column_stack([U0, D0, U1, D1, sep, floor]).tolist()
            write("".join([row % tuple(r) for r in table]))
    if violations:
        click.echo(f"{violations} separation violations", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
