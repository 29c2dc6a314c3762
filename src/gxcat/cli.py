"""gxcat command line interface.

One binary, subcommand style.  Exit codes: 0 success / checks passed,
1 validation failure (a report is still emitted), 2 usage or parse error,
3 resource guard exceeded, 4 internal invariant violated (a mathematical
self-check of gxcat failed: a defect of the program, not of the input).  JSON reports have sorted keys and exact number
encodings and are byte-identical across runs on identical inputs.
"""

from __future__ import annotations

import json
import sys

import click

from . import corpus as corpus_mod
from .cohomology import (
    ResourceLimit,
    cohomology_group,
    is_coboundary,
    is_cocycle,
    transgress,
    u1_cohomology,
)
from .exact import scalar_json
from .fusion import (
    FusionError,
    global_dim,
    invertible_sector_obstruction,
    pf_dims,
    picard,
    sector_dims,
    validate_action,
    validate_ring,
)
from .gauging import crossed_product, equivariantize, perm_orbifold_picard, roundtrip_check
from .groups import GroupError, InvariantError, build_group
from .pointed import (
    enumerate_holomorphic,
    holomorphic_crossed,
    kirillov_S,
    twisted_double,
    validate_pointed,
)
from .serialize import (
    canonical_json,
    detect_kind,
    dump_cocycle,
    dump_pointed,
    load_cocycle,
    load_group,
    load_pointed,
    load_ring,
)
from .cohomology import TorsionCocycle

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4


class CliError(click.ClickException):
    exit_code = EXIT_VALIDATION


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise click.UsageError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _emit(ctx, payload, fmt, out):
    if fmt == "json":
        text = canonical_json(payload)
    else:
        text = _as_text(_prettify(payload))
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _prettify(payload):
    """Render exact-number encodings as readable strings (text mode only)."""
    if isinstance(payload, dict):
        keys = set(payload)
        if keys == {"a", "b", "m", "den"}:
            return _pretty_quad(payload)
        if keys == {"value", "err", "exact"}:
            return f"{payload['value']!r} (err<={payload['err']:.1e})"
        if keys == {"n", "coeffs"}:
            terms = [
                (f"{num}" if den == 1 else f"{num}/{den}") + (f"*z{payload['n']}^{k}" if k else "")
                for k, num, den in payload["coeffs"]
            ]
            return " + ".join(terms) if terms else "0"
        return {k: _prettify(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_prettify(v) for v in payload]
    return payload


def _pretty_quad(enc):
    a, b, m, den = enc["a"], enc["b"], enc["m"], enc["den"]
    if b == 0:
        num = f"{a}"
    else:
        root = f"sqrt({m})"
        bpart = root if b == 1 else (f"-{root}" if b == -1 else f"{b}*{root}")
        num = bpart if a == 0 else f"{a}{'+' if b > 0 else ''}{bpart}"
    if den == 1:
        return num
    return f"({num})/{den}" if ("+" in num or "-" in num[1:]) else f"{num}/{den}"


def _as_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines) + ("\n" if indent == 0 else "")
    if isinstance(payload, list):
        lines = []
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
        return "\n".join(lines)
    return f"{pad}{payload}"


fmt_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
out_option = click.option("--out", type=click.Path(), default=None)


@click.group()
def main():
    """Exact computations with graded fusion rings and crossed braided data."""


def _wrap(fn):
    """Translate library errors into the documented exit codes."""

    def runner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ResourceLimit as exc:
            click.echo(f"resource guard: {exc}", err=True)
            sys.exit(EXIT_RESOURCE)
        except InvariantError as exc:
            click.echo(f"invariant violated: {exc}", err=True)
            sys.exit(EXIT_INVARIANT)
        except (FusionError, GroupError, ValueError, AssertionError, corpus_mod.CorpusError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)

    runner.__name__ = fn.__name__
    runner.__doc__ = fn.__doc__
    return runner


def _load_group_opt(spec):
    if spec.endswith(".json"):
        return load_group(_read_json(spec))
    try:
        return build_group(spec)
    except GroupError as exc:
        raise click.UsageError(str(exc))


def _load_cocycle_opt(group, cocycle_path, trivial, n):
    if trivial or cocycle_path is None:
        return TorsionCocycle.make(group, 3, n or group.order, {})
    c = load_cocycle(_read_json(cocycle_path))
    if c.group.mul != group.mul:
        raise CliError("cocycle group does not match --group")
    return c


@main.command()
@click.argument("path", type=click.Path())
@fmt_option
@out_option
@click.pass_context
def validate(ctx, path, fmt, out):
    """Validate a group, cocycle, ring or pointed-data file."""
    obj = _read_json(path)
    try:
        kind = detect_kind(obj)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    @_wrap
    def run():
        if kind == "group":
            load_group(obj)
            payload = {"kind": kind, "passed": True, "issues": []}
        elif kind == "cocycle":
            c = load_cocycle(obj)
            ok, wit = is_cocycle(c)
            issues = [] if ok else [{"code": "cocycle", "message": "coboundary does not vanish", "witness": list(wit)}]
            payload = {"kind": kind, "passed": ok, "issues": issues}
        elif kind == "ring":
            ring, action = load_ring(obj)
            rep = validate_ring(ring)
            if action is not None and rep.passed:
                rep = validate_action(ring, action)
            payload = {"kind": kind, "passed": rep.passed, "issues": rep.issues}
        else:
            data = load_pointed(obj)
            rep = validate_pointed(data)
            payload = {"kind": kind, "passed": rep.passed, "issues": rep.issues}
        _emit(ctx, payload, fmt, out)
        if not payload["passed"]:
            sys.exit(EXIT_VALIDATION)

    try:
        run()
    except (GroupError, ValueError) as exc:
        payload = {"kind": kind, "passed": False, "issues": [{"code": "load", "message": str(exc), "witness": None}]}
        _emit(ctx, payload, fmt, out)
        sys.exit(EXIT_VALIDATION)


@main.command()
@click.argument("path", type=click.Path())
@fmt_option
@out_option
@click.pass_context
@_wrap
def dims(ctx, path, fmt, out):
    """Quantum dimensions and global dimension of a fusion ring."""
    ring, _ = load_ring(_read_json(path))
    d = pf_dims(ring)
    payload = {
        "dims": {ring.label(i): scalar_json(v) for i, v in enumerate(d)},
        "global_dim": scalar_json(global_dim(ring)),
    }
    _emit(ctx, payload, fmt, out)


@main.command()
@click.argument("path", type=click.Path())
@fmt_option
@out_option
@click.pass_context
@_wrap
def sectors(ctx, path, fmt, out):
    """Per-degree squared-dimension sums and the full-spectrum flag."""
    ring, _ = load_ring(_read_json(path))
    _emit(ctx, sector_dims(ring).to_json(), fmt, out)


@main.command(name="picard")
@click.argument("path", type=click.Path())
@fmt_option
@out_option
@click.pass_context
@_wrap
def picard_cmd(ctx, path, fmt, out):
    """Invertible simples and their group table."""
    ring, _ = load_ring(_read_json(path))
    labels, grp = picard(ring)
    payload = {"labels": labels, "group_order": grp.order, "table": [list(r) for r in grp.mul]}
    _emit(ctx, payload, fmt, out)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--g", "g_name", required=True, help="group element name")
@fmt_option
@out_option
@click.pass_context
@_wrap
def obstruct(ctx, path, g_name, fmt, out):
    """Invertibility obstruction for degree g (Picard-emptiness witness)."""
    ring, action = load_ring(_read_json(path))
    if action is None:
        raise CliError("ring file carries no action")
    if g_name not in action.group.element_names:
        raise click.UsageError(f"unknown group element {g_name}")
    g_el = action.group.element_names.index(g_name)
    witness = invertible_sector_obstruction(ring, action, g_el)
    _emit(ctx, {"g": g_name, "witness": witness}, fmt, out)


@main.command()
@click.argument("path", type=click.Path())
@fmt_option
@out_option
@click.pass_context
@_wrap
def gauge(ctx, path, fmt, out):
    """Equivariantize a ring with its bundled action (orbit/stabilizer model)."""
    ring, action = load_ring(_read_json(path))
    if action is None:
        raise CliError("ring file carries no action")
    _emit(ctx, equivariantize(ring, action).to_json(), fmt, out)


def _parse_embedding(embed):
    out = {}
    for part in embed.split(","):
        if "=" not in part:
            raise click.UsageError("embedding must look like pi0=label,pi1=label,...")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


@main.command()
@click.argument("path", type=click.Path())
@click.option("--embed", required=True, help="pi0=label,pi1=label,...")
@click.option("--group", "group_spec", default=None, help="symmetry group preset (if no action in file)")
@fmt_option
@out_option
@click.pass_context
@_wrap
def ungauge(ctx, path, embed, group_spec, fmt, out):
    """Crossed product by an embedded Rep(G) (ring-level de-equivariantization)."""
    ring, action = load_ring(_read_json(path))
    group = _load_group_opt(group_spec) if group_spec else None
    result = crossed_product(ring, _parse_embedding(embed), action=action if group is None else None, group=group)
    _emit(ctx, result.to_json(), fmt, out)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--embed", required=True)
@click.option("--group", "group_spec", default=None)
@fmt_option
@out_option
@click.pass_context
@_wrap
def roundtrip(ctx, path, embed, group_spec, fmt, out):
    """Crossed product followed by re-equivariantization; dimension audit."""
    ring, action = load_ring(_read_json(path))
    group = _load_group_opt(group_spec) if group_spec else None
    rep = roundtrip_check(ring, _parse_embedding(embed), action=action if group is None else None, group=group)
    _emit(ctx, rep.to_json(), fmt, out)
    if not rep.dims_match:
        sys.exit(EXIT_VALIDATION)


@main.command()
@click.option("--group", "group_spec", required=True)
@click.option("--k", type=int, required=True)
@click.option("--N", "n", type=int, default=None)
@fmt_option
@out_option
@click.pass_context
@_wrap
def cohomology(ctx, group_spec, k, n, fmt, out):
    """H^k(G, mu_N) as invariant factors (N defaults to |G|)."""
    g = _load_group_opt(group_spec)
    n = n or g.order
    h = cohomology_group(g, k, n)
    payload = {
        "group": g.name,
        "k": k,
        "N": n,
        "invariant_factors": list(h.invariant_factors),
        "generator_orders": list(h.generator_orders),
    }
    if k in (2, 3):
        try:
            u1 = u1_cohomology(g, k)
            payload["u1_invariant_factors"] = list(u1.invariant_factors)
            exponent = max(u1.invariant_factors, default=1)
            if n % exponent:
                click.echo(
                    f"warning: H^{k}(G, U(1)) has exponent {exponent}, which does not divide N={n}",
                    err=True,
                )
        except ResourceLimit:
            pass
    _emit(ctx, payload, fmt, out)


@main.command(name="transgress")
@click.argument("path", type=click.Path())
@click.option("--g", "g_name", required=True)
@fmt_option
@out_option
@click.pass_context
@_wrap
def transgress_cmd(ctx, path, g_name, fmt, out):
    """Transgress a 3-cocycle to a 2-cocycle on a centralizer."""
    omega = load_cocycle(_read_json(path))
    if g_name not in omega.group.element_names:
        raise click.UsageError(f"unknown group element {g_name}")
    tau, cent, _ = transgress(omega, omega.group.element_names.index(g_name))
    payload = {
        "centralizer_order": cent.order,
        "tau": dump_cocycle(tau, inline_group=True),
        "is_coboundary": is_coboundary(tau),
    }
    _emit(ctx, payload, fmt, out)


@main.command()
@click.option("--group", "group_spec", required=True)
@click.option("--cocycle", "cocycle_path", default=None)
@click.option("--trivial", is_flag=True, help="use the zero cocycle")
@click.option("--N", "n", type=int, default=None)
@fmt_option
@out_option
@click.pass_context
@_wrap
def double(ctx, group_spec, cocycle_path, trivial, n, fmt, out):
    """Twisted quantum double data: simples, dims, T, and S when exact."""
    g = _load_group_opt(group_spec)
    omega = _load_cocycle_opt(g, cocycle_path, trivial or cocycle_path is None, n)
    _emit(ctx, twisted_double(g, omega).to_json(), fmt, out)


@main.command(name="holo-crossed")
@click.option("--group", "group_spec", required=True)
@click.option("--cocycle", "cocycle_path", default=None)
@click.option("--trivial", is_flag=True)
@click.option("--N", "n", type=int, default=None)
@fmt_option
@out_option
@click.pass_context
@_wrap
def holo_crossed(ctx, group_spec, cocycle_path, trivial, n, fmt, out):
    """One-invertible-per-degree crossed data with solved braiding."""
    g = _load_group_opt(group_spec)
    omega = _load_cocycle_opt(g, cocycle_path, trivial or cocycle_path is None, n)
    data, count = holomorphic_crossed(g, omega)
    _emit(ctx, {"solutions": count, "data": dump_pointed(data)}, fmt, out)


@main.command(name="enumerate")
@click.option("--group", "group_spec", required=True)
@click.option("--N", "n", type=int, required=True)
@click.option("--seed", type=int, default=None)
@fmt_option
@out_option
@click.pass_context
@_wrap
def enumerate_cmd(ctx, group_spec, n, seed, fmt, out):
    """Exhaustive holomorphic enumeration with orbit partition."""
    g = _load_group_opt(group_spec)
    orbits, sols = enumerate_holomorphic(g, n, shuffle_seed=seed)
    payload = {
        "orbit_count": len(orbits),
        "solution_count": len(sols),
        "orbits": [
            {"size": o["size"], "representative": dump_pointed(o["representative"])} for o in orbits
        ],
    }
    _emit(ctx, payload, fmt, out)


@main.command()
@click.argument("path", type=click.Path())
@fmt_option
@out_option
@click.pass_context
@_wrap
def smatrix(ctx, path, fmt, out):
    """Kirillov pairing matrix of pointed crossed data, with verdict."""
    data = load_pointed(_read_json(path))
    rep = validate_pointed(data)
    if not rep.passed:
        raise CliError(f"input fails validation: {rep.issues[0]['message']}")
    km = kirillov_S(data)
    _emit(ctx, km.to_json(), fmt, out)


@main.command(name="perm-picard")
@click.option("--base", "base_path", required=True, type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("--group", "group_spec", required=True)
@fmt_option
@out_option
@click.pass_context
@_wrap
def perm_picard(ctx, base_path, n, group_spec, fmt, out):
    """Invertibles of a permutation orbifold, with brute-force cross-check."""
    ring, _ = load_ring(_read_json(base_path))
    g = _load_group_opt(group_spec)
    emb = natural_embedding(g, n)
    pairs = perm_orbifold_picard(ring, n, g, emb)
    payload = {
        "count": len(pairs),
        "pairs": [{"picard": lab, "character": list(ch)} for lab, ch in pairs],
    }
    _emit(ctx, payload, fmt, out)


def natural_embedding(group, n):
    """Canonical permutation embedding for cyclic and symmetric presets."""
    import itertools as _it

    if group.name == f"S{n}":
        perms = sorted(_it.permutations(range(n)))
        return [perms[i] for i in group.elements()]
    if group.name == f"Z{n}":
        return [tuple((i + k) % n for i in range(n)) for k in group.elements()]
    raise click.UsageError(f"no natural embedding of {group.name} into S_{n}")


@main.command(name="corpus")
@fmt_option
@out_option
@click.pass_context
@_wrap
def corpus_cmd(ctx, fmt, out):
    """List the bundled corpus entries (with integrity check)."""
    entries = corpus_mod.corpus_list()
    payload = [
        {"name": e.name, "kind": e.kind, "path": e.path, "golden": e.golden}
        for e in entries
    ]
    _emit(ctx, payload, fmt, out)


if __name__ == "__main__":
    main()
