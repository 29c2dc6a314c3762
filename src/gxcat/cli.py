"""gxcat command line interface.

One binary, subcommand style.  Exit codes: 0 success / checks passed,
1 validation failure (a report is still emitted), 2 usage or parse error,
3 resource guard exceeded, 4 internal invariant violated (a mathematical
self-check of gxcat failed: a defect of the program, not of the input).
JSON reports have sorted keys and exact number encodings and are
byte-identical across runs on identical inputs.

``COMMANDS`` maps each command name to its function, whose docstring is
its one-line help, and to its arguments.  ``main`` reads the arguments of
the invoked command from that table alone, as argparse would read them.

Each command imports the layers it uses inside its own body, so a process
pays only for the command it runs.  ``--help``, usage errors, ``corpus``,
a ``cohomology`` that its size guard refuses and the input commands load
no numpy: ``validate`` on a group file or on a ring file (with or without
an action), ``dims``, ``sectors``, ``picard`` and ``obstruct`` check
groups and rings on their tuple and sparse forms.
numpy is loaded only by the commands that run an array kernel: cochains
(``validate`` on a cocycle, ``cohomology``, ``transgress``), pointed data
and doubles, and gauging.

``run`` is the process entry, of the ``gxcat`` script and of ``python -m
gxcat.cli``.  It runs ``main`` with the cyclic collector off and, when
``main`` exits with an int code, runs the atexit handlers, flushes stdout
and stderr and ends with ``os._exit``, skipping the teardown of a heap that
is about to vanish; any other end takes the interpreter's own exit path.
``main`` leaves the collector alone: the tests and ``bench/child.py`` call
it in process.
"""

import atexit
import gc
import json
import os
import re
import sys

from .errors import CorpusError, FusionError, GroupError, InvariantError, ResourceLimit, guard_cohomology
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

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4


class CliError(Exception):
    """The input cannot be used by the command: ``Error: MESSAGE``, exit 1."""


class UsageError(Exception):
    """A usage or parse error: the command's usage and MESSAGE, exit 2."""


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise UsageError(f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise UsageError(f"{path} does not hold a JSON object")
    return obj


def _emit(payload, fmt, out):
    _write(canonical_json(payload) if fmt == "json" else _as_text(_prettify(payload)), out)


def _write(text, out=None):
    """Write text to the file out, or to stdout; a write that fails is a usage error."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out:  # the unwritten text goes to devnull, so no later flush fails on it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):  # the reader is gone: a traceback, as before
                raise
        raise UsageError(f"cannot write {out or 'stdout'}: {exc.strerror}")


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


HELP = "Exact computations with graded fusion rings and crossed braided data."
COMMANDS = {}  # name -> (function, its arguments as (flags, keywords))


def command(name, *arguments):
    """Enter the decorated function in ``COMMANDS`` under ``name``.  Its
    docstring is its help; every command also takes ``--format`` and ``--out``."""

    def enter(fn):
        COMMANDS[name] = (fn, arguments)
        return fn

    return enter


def _arg(*flags, **keywords):
    return flags, keywords


def _positive(text):
    """The type of the --N options: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise UsageError(f"argument --N: N must be a positive integer, not {value}")
    return value


COMMON = (_arg("--format", dest="fmt", metavar="{text,json}", choices=("text", "json"), default="text"), _arg("--out"))
PATH = _arg("path")
GROUP = _arg("--group", dest="group_spec", metavar="GROUP", required=True)
ELEMENT = _arg("--g", dest="g_name", required=True, help="group element name")
N_OPT = _arg("--N", dest="n", type=_positive, default=None)
CROSSED = (GROUP, _arg("--cocycle", dest="cocycle_path", default=None),
           _arg("--trivial", action="store_true", help="use the zero cocycle"), N_OPT)
EMBEDDED = (_arg("--embed", required=True, help="pi0=label,pi1=label,..."),
            _arg("--group", dest="group_spec", metavar="GROUP", default=None,
                 help="symmetry group preset (if no action in file)"))


def _load_group_opt(spec):
    if spec.endswith(".json"):
        return load_group(_read_json(spec))
    try:
        return load_group(spec)
    except GroupError as exc:
        raise UsageError(str(exc))


def _load_cocycle_opt(group, cocycle_path, trivial, n):
    from .cohomology import TorsionCocycle

    if cocycle_path is None:
        return TorsionCocycle.make(group, 3, group.order if n is None else n, {})
    if trivial or n is not None:
        raise UsageError(f"{'--trivial' if trivial else '--N'} is for the zero cocycle and cannot go with --cocycle")
    c = load_cocycle(_read_json(cocycle_path))
    if c.group.mul != group.mul:
        raise CliError("cocycle group does not match --group")
    return c


@command("validate", PATH)
def validate(path, fmt, out):
    """Validate a group, cocycle, ring or pointed-data file."""
    obj = _read_json(path)
    try:
        kind = detect_kind(obj)
    except ValueError as exc:
        raise UsageError(str(exc))

    if kind == "group":
        load_group(obj)
        payload = {"kind": kind, "passed": True, "issues": []}
    elif kind == "cocycle":
        from .cohomology import is_cocycle

        c = load_cocycle(obj)
        ok, wit = is_cocycle(c)
        issues = [] if ok else [{"code": "cocycle", "message": "coboundary does not vanish", "witness": list(wit)}]
        payload = {"kind": kind, "passed": ok, "issues": issues}
    elif kind == "ring":
        from .fusion import validate_action, validate_ring

        ring, action = load_ring(obj)
        rep = validate_ring(ring)
        if action is not None and rep.passed:
            rep = validate_action(ring, action)
        payload = {"kind": kind, "passed": rep.passed, "issues": rep.issues}
    else:
        from .pointed import validate_pointed

        data = load_pointed(obj)
        rep = validate_pointed(data)
        payload = {"kind": kind, "passed": rep.passed, "issues": rep.issues}
    _emit(payload, fmt, out)
    if not payload["passed"]:
        sys.exit(EXIT_VALIDATION)


@command("dims", PATH)
def dims(path, fmt, out):
    """Quantum dimensions and global dimension of a fusion ring."""
    from .exact import scalar_json
    from .fusion import global_dim, pf_dims

    ring, _ = load_ring(_read_json(path))
    d = pf_dims(ring)
    payload = {
        "dims": {ring.label(i): scalar_json(v) for i, v in enumerate(d)},
        "global_dim": scalar_json(global_dim(ring)),
    }
    _emit(payload, fmt, out)


@command("sectors", PATH)
def sectors(path, fmt, out):
    """Per-degree squared-dimension sums and the full-spectrum flag."""
    from .fusion import sector_dims

    ring, _ = load_ring(_read_json(path))
    _emit(sector_dims(ring).to_json(), fmt, out)


@command("picard", PATH)
def picard_cmd(path, fmt, out):
    """Invertible simples and their group table."""
    from .fusion import picard

    ring, _ = load_ring(_read_json(path))
    labels, grp = picard(ring)
    payload = {"labels": labels, "group_order": grp.order, "table": [list(r) for r in grp.mul]}
    _emit(payload, fmt, out)


@command("obstruct", PATH, ELEMENT)
def obstruct(path, g_name, fmt, out):
    """Invertibility obstruction for degree g (Picard-emptiness witness)."""
    from .fusion import invertible_sector_obstruction

    ring, action = load_ring(_read_json(path))
    if action is None:
        raise CliError("ring file carries no action")
    if g_name not in action.group.element_names:
        raise UsageError(f"unknown group element {g_name}")
    g_el = action.group.element_names.index(g_name)
    witness = invertible_sector_obstruction(ring, action, g_el)
    _emit({"g": g_name, "witness": witness}, fmt, out)


@command("gauge", PATH)
def gauge(path, fmt, out):
    """Equivariantize a ring with its bundled action (orbit/stabilizer model)."""
    from .gauging import equivariantize

    ring, action = load_ring(_read_json(path))
    if action is None:
        raise CliError("ring file carries no action")
    _emit(equivariantize(ring, action).to_json(), fmt, out)


def _parse_embedding(embed):
    """The pairs of ``pi0=label,pi1=label,...``, split at the commas outside
    brackets, so that a label such as ``(1,1)`` keeps its comma."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(embed):
        depth += (ch in "([{") - (ch in ")]}")
        if depth < 0:
            break
        if ch == "," and depth == 0:
            parts.append(embed[start:i])
            start = i + 1
    out = {}
    for part in [*parts, embed[start:]]:
        if depth or "=" not in part:
            raise UsageError("embedding must look like pi0=label,pi1=label,...")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


@command("ungauge", PATH, *EMBEDDED)
def ungauge(path, embed, group_spec, fmt, out):
    """Crossed product by an embedded Rep(G) (ring-level de-equivariantization)."""
    from .gauging import crossed_product

    ring, action = load_ring(_read_json(path))
    group = _load_group_opt(group_spec) if group_spec else None
    result = crossed_product(ring, _parse_embedding(embed), action=action if group is None else None, group=group)
    _emit(result.to_json(), fmt, out)


@command("roundtrip", PATH, *EMBEDDED)
def roundtrip(path, embed, group_spec, fmt, out):
    """Crossed product followed by re-equivariantization; dimension audit."""
    from .gauging import roundtrip_check

    ring, action = load_ring(_read_json(path))
    group = _load_group_opt(group_spec) if group_spec else None
    rep = roundtrip_check(ring, _parse_embedding(embed), action=action if group is None else None, group=group)
    _emit(rep.to_json(), fmt, out)
    if not rep.dims_match:
        sys.exit(EXIT_VALIDATION)


@command("cohomology", GROUP, _arg("--k", type=int, required=True), N_OPT)
def cohomology(group_spec, k, n, fmt, out):
    """H^k(G, mu_N) as invariant factors (N defaults to |G|)."""
    g = _load_group_opt(group_spec)
    n = g.order if n is None else n
    guard_cohomology(g.order, k, n)  # refuses before numpy is loaded
    from .cohomology import cohomology_group, u1_cohomology

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
                sys.stderr.write(f"warning: H^{k}(G, U(1)) has exponent {exponent}, which does not divide N={n}\n")
        except ResourceLimit:
            pass
    _emit(payload, fmt, out)


@command("transgress", PATH, ELEMENT)
def transgress_cmd(path, g_name, fmt, out):
    """Transgress a 3-cocycle to a 2-cocycle on a centralizer."""
    from .cohomology import is_coboundary, transgress

    omega = load_cocycle(_read_json(path))
    if g_name not in omega.group.element_names:
        raise UsageError(f"unknown group element {g_name}")
    tau, cent, _ = transgress(omega, omega.group.element_names.index(g_name))
    payload = {
        "centralizer_order": cent.order,
        "tau": dump_cocycle(tau, inline_group=True),
        "is_coboundary": is_coboundary(tau),
    }
    _emit(payload, fmt, out)


@command("double", *CROSSED)
def double(group_spec, cocycle_path, trivial, n, fmt, out):
    """Twisted quantum double data: simples, dims, T and S."""
    from .pointed import twisted_double

    g = _load_group_opt(group_spec)
    omega = _load_cocycle_opt(g, cocycle_path, trivial, n)
    _emit(twisted_double(g, omega).to_json(), fmt, out)


@command("holo-crossed", *CROSSED)
def holo_crossed(group_spec, cocycle_path, trivial, n, fmt, out):
    """One-invertible-per-degree crossed data with solved braiding."""
    from .pointed import holomorphic_crossed

    g = _load_group_opt(group_spec)
    omega = _load_cocycle_opt(g, cocycle_path, trivial, n)
    data, count = holomorphic_crossed(g, omega)
    _emit({"solutions": count, "data": dump_pointed(data)}, fmt, out)


@command("enumerate", GROUP, _arg("--N", dest="n", type=_positive, required=True))
def enumerate_cmd(group_spec, n, fmt, out):
    """Exhaustive holomorphic enumeration with orbit partition."""
    from .pointed import enumerate_holomorphic

    g = _load_group_opt(group_spec)
    orbits, states = enumerate_holomorphic(g, n)
    payload = {
        "orbit_count": len(orbits),
        "solution_count": len(states),
        "orbits": [
            {"size": o["size"], "representative": dump_pointed(o["representative"])} for o in orbits
        ],
    }
    _emit(payload, fmt, out)


@command("smatrix", PATH)
def smatrix(path, fmt, out):
    """Kirillov pairing matrix of pointed crossed data, with verdict."""
    from .pointed import kirillov_S, validate_pointed

    data = load_pointed(_read_json(path))
    rep = validate_pointed(data)
    if not rep.passed:
        raise CliError(f"input fails validation: {rep.issues[0]['message']}")
    km = kirillov_S(data)
    _emit(km.to_json(), fmt, out)


@command("perm-picard", _arg("--base", dest="base_path", required=True), _arg("--n", type=int, required=True), GROUP)
def perm_picard(base_path, n, group_spec, fmt, out):
    """Invertibles of a permutation orbifold, with brute-force cross-check."""
    from .gauging import perm_orbifold_picard

    ring, _ = load_ring(_read_json(base_path))
    g = _load_group_opt(group_spec)
    emb = natural_embedding(g, n)
    pairs = perm_orbifold_picard(ring, n, g, emb)
    payload = {
        "count": len(pairs),
        "pairs": [{"picard": lab, "character": list(ch)} for lab, ch in pairs],
    }
    _emit(payload, fmt, out)


def natural_embedding(group, n):
    """Canonical permutation embedding for cyclic and symmetric presets."""
    import itertools as _it

    if group.name == f"S{n}":
        perms = sorted(_it.permutations(range(n)))
        return [perms[i] for i in group.elements()]
    if group.name == f"Z{n}":
        return [tuple((i + k) % n for i in range(n)) for k in group.elements()]
    raise UsageError(f"no natural embedding of {group.name} into S_{n}")


@command("corpus")
def corpus_cmd(fmt, out):
    """List the bundled corpus entries (with integrity check)."""
    from .corpus import corpus_list

    entries = corpus_list()
    payload = [
        {"name": e.name, "kind": e.kind, "path": e.path, "golden": e.golden}
        for e in entries
    ]
    _emit(payload, fmt, out)


def _parse(usage, fn, entries, args):
    """The keyword arguments of ``fn`` that ``args`` give, read as argparse reads them
    without abbreviations: a flag takes the next argument or the text after ``=``, the
    last of a repeated flag counts, every argument after the first ``--`` is a value,
    and the first value that no flag takes fills the positional."""
    specs = {f[0]: (k.get("dest", f[0][2:]), k) for f, k in entries if f[0][0] == "-"}
    options = {dest: k.get("default", False if "action" in k else None) for dest, k in specs.values()}
    specs.update({"-h": (None, {"action": "help"}), "--help": (None, {"action": "help"})})
    positional = [f[0] for f, _ in entries if f[0][0] != "-"]

    def as_flag(arg):  # (flag, text after "=" or None) if arg is a flag, known or not; None for a value like -1
        name, eq, value = arg.partition("=")
        if eq and name in specs:
            return name, value
        if arg in specs or arg[:1] == "-" != arg and " " not in arg and not re.match(r"-\d+$|-\d*\.\d+$", arg):
            return arg, None

    split = args.index("--") if "--" in args else len(args)
    extras, kept = [], [split] if "--" in args else []
    tokens = ((j, arg) for j, arg in enumerate(args) if j != split)
    for j, arg in tokens:
        hit = as_flag(arg) if j < split else None
        if hit is None or hit[0] not in specs:  # a value or an unknown flag
            if hit is None and positional:  # a -- next to the positional's value is dropped
                options[positional.pop()], kept = arg, [] if split in (j - 1, j + 1) else kept
            else:
                extras.append(j)
            continue
        (name, value), (dest, keywords) = hit, specs[hit[0]]
        if "action" in keywords and value is not None:
            raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
        if keywords.get("action") == "help":
            rows = [(f[0] if f[0][0] != "-" or "action" in k else f"{f[0]} {k.get('metavar', f[0][2:].upper())}",
                     ("(required) " if k.get("required") else "") + k.get("help", "")) for f, k in entries]
            _write(f"{usage}\n\n  {fn.__doc__}\n\nOptions:\n"
                   + "".join(f"  {w:<24}{h}".rstrip() + "\n" for w, h in [*rows, ("-h, --help", "")]))
            sys.exit(EXIT_OK)
        if "action" not in keywords and value is None:
            if j + 1 == len(args) or as_flag(args[j + 1]):  # the next is a flag or the first --
                raise UsageError(f"argument {name}: expected one argument")
            value = next(tokens)[1]
        try:  # the typed options are int-valued
            value = True if "action" in keywords else keywords.get("type", str)(value)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value: {value!r}")
        if value not in keywords.get("choices", [value]):
            choices = ", ".join(map(repr, keywords["choices"]))
            raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        options[dest] = value
    missing = [f[0] for f, k in entries if f[0] in positional or k.get("required") and options[specs[f[0]][0]] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras or kept:
        raise UsageError(f"unrecognized arguments: {' '.join(args[j] for j in sorted(extras + kept))}")
    return options


def _fail(message, code):
    sys.stderr.write(message + "\n")
    sys.exit(code)


def main(args=None, prog_name="gxcat"):
    """Run the command named by ``args`` (default ``sys.argv[1:]``) and exit
    with its code.  Only that command's argument parser is built."""
    args = sys.argv[1:] if args is None else list(args)
    usage = f"Usage: {prog_name} COMMAND [ARGS]...\n"
    if args[:1] in (["--help"], ["-h"]):
        width = max(map(len, COMMANDS))
        lines = "".join(f"  {name:<{width}}  {fn.__doc__}\n" for name, (fn, _) in sorted(COMMANDS.items()))
        try:
            _write(f"{usage}\n  {HELP}\n\nCommands:\n{lines}")
        except UsageError as exc:
            _fail(f"{usage}{prog_name}: error: {exc}", EXIT_USAGE)
        sys.exit(EXIT_OK)
    if not args or args[0] not in COMMANDS:
        problem = f"no such command {args[0]!r}" if args else "missing command"
        _fail(f"{usage}{prog_name}: error: {problem} (see '{prog_name} --help')", EXIT_USAGE)
    fn, arguments = COMMANDS[args[0]]
    prog, entries = f"{prog_name} {args[0]}", (*arguments, *COMMON)
    usage = " ".join([f"Usage: {prog} [OPTIONS]", *(f[0] for f, _ in entries if f[0][0] != "-")])
    try:
        options = _parse(usage, fn, entries, args[1:])
        if options["out"] and not os.path.isdir(os.path.dirname(options["out"]) or "."):
            raise UsageError(f"cannot write {options['out']}: no such directory")
        fn(**options)
    except UsageError as exc:
        _fail(f"{usage}\n{prog}: error: {exc}", EXIT_USAGE)
    except CliError as exc:
        _fail(f"Error: {exc}", EXIT_VALIDATION)
    except ResourceLimit as exc:
        _fail(f"resource guard: {exc}", EXIT_RESOURCE)
    except InvariantError as exc:
        _fail(f"invariant violated: {exc}", EXIT_INVARIANT)
    except (FusionError, GroupError, ValueError, CorpusError) as exc:
        _fail(f"error: {exc}", EXIT_VALIDATION)
    sys.exit(EXIT_OK)


main.main = main  # the in-process entry point of bench/child.py: main.main(args=..., prog_name=...)


def run():
    """The process entry: ``main`` with the collector off, then ``os._exit``
    after the atexit handlers and a flush (see the module docstring)."""
    gc.disable()
    try:
        main()
    except SystemExit as exc:
        if type(exc.code) is int and _finalized():
            os._exit(exc.code)
        raise


def _finalized():
    """Run the atexit handlers and flush stdout and stderr, as finalization
    does before it tears the heap down; False when a flush fails."""
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe, a full disk, a closed stream
        return False
    return True


if __name__ == "__main__":
    run()
