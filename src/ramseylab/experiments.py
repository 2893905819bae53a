"""Experiment manifests: run a named operation from a JSON config,
persist results plus a resolved manifest, and replay stored runs with
byte-comparison of the result rows.

A manifest is a JSON object:

    {"op": "scan" | "facts" | "fact",
     "name": "<fact id>",            # op == "fact" only
     "args": { ... },                # op-specific
     "seed": 123,                    # optional; drawn and persisted if absent
     "out": "results.csv"}           # relative to the manifest

A key that the manifest's op does not read (at the top level, in a
scan's args or in a p_grid object) is refused with a ManifestError
naming it; the top level may also hold the "version" a run records.
Running writes the result file and a sibling ``<out>.manifest.json``
with the seed, the package version and, for a scan, the probability
grid, node budget, clique shortcut, cache and order resolved, so a
later replay needs no defaults.  A new scan's cache is "monotone" and
its order "degree"; a stored scan manifest without a cache replays
with "none", and one without an order with "canonical", as it ran.
The resolved ``out`` is the result's file name, relative to that
sibling manifest.
Replays are compared byte for byte, except that fact-report runtimes
are zeroed on both sides first.
"""

from __future__ import annotations

import copy
import json
import os
import typing
from typing import Optional, Union

from . import facts as facts_mod
from .coloring import DEFAULT_NODE_BUDGET
from .graphs import build_family
from .perturb import _CACHES, _ORDERS, DEFAULT_PER_DECADE, log_spaced_grid, threshold_scan

PACKAGE_VERSION = "0.1.0"


class ManifestError(ValueError):
    """The manifest does not describe a runnable experiment."""


def _require(mapping: dict, key: str, what: str):
    """mapping[key], or a ManifestError naming the missing key."""
    if key not in mapping:
        raise ManifestError(f"{what} needs {key!r}")
    return mapping[key]


# the keys a scan's args may hold, and those of a p_grid object; a
# scan manifest written before searches were bounded by nodes alone also
# holds "time_budget", which is read and ignored so that it replays
_SCAN_ARGS = ("bases", "targets", "p_grid", "trials", "node_budget", "clique_shortcut",
              "cache", "order")
_GRID_KEYS = ("lo", "hi", "per_decade")
# the top-level keys a manifest of each op may hold
_MANIFEST_KEYS = {op: ("op", "args", "seed", "out", "version") + extra
                  for op, extra in (("scan", ()), ("facts", ()), ("fact", ("name",)))}


def _known_keys(mapping: dict, known: tuple, what: str) -> None:
    """A ManifestError naming the first key of mapping not in known."""
    for key in mapping:
        if key not in known:
            raise ManifestError(f"unknown {what} {key!r}; known: {', '.join(known)}")


# the JSON kind a manifest value must have, by the type it is read as
_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _is_kind(value, types: tuple) -> bool:
    """Whether value has one of the JSON kinds read as types: an int
    counts as a float, and a bool is never a number."""
    if float in types:
        types += (int,)
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _typed(value, key: str, kind: type):
    """value read as kind, once it has that JSON kind; nothing is
    truncated, parsed from text or read as truthy."""
    if not _is_kind(value, (kind,)):
        raise ManifestError(f"{key!r} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def parse_pattern(token: str):
    """One target pattern from compact text: K5, C7, P4, or g6:<code>."""
    from . import graph6
    from .graphs import arbitrary, clique, cycle, path

    tok = token.strip()
    low = tok.lower()
    if low.startswith(("g6:", "graph6:")):
        return arbitrary(graph6.decode(tok.split(":", 1)[1]))
    if len(tok) >= 2 and tok[0] in "KCPkcp" and tok[1:].isdigit():
        size = int(tok[1:])
        return {"k": clique, "c": cycle, "p": path}[tok[0].lower()](size)
    raise ManifestError(f"cannot parse pattern {token!r}")


def parse_targets(text: str) -> list[list]:
    """Per-color target lists: colors split on ',', alternatives on '+'.

    "K3,K3+C5" means color 0 forbids K3 and color 1 forbids K3 or C5.
    """
    colors = [part for part in text.split(",")]
    if len(colors) < 2:
        raise ManifestError("need at least two comma-separated colors")
    return [[parse_pattern(tok) for tok in part.split("+")] for part in colors]


def _fact_report(name: str, args: dict) -> facts_mod.FactReport:
    if name not in facts_mod._FACTS:
        raise ManifestError(f"unknown fact {name!r}; known: {sorted(facts_mod._FACTS)}")
    if not isinstance(args, dict):
        raise ManifestError(f"fact {name!r}: arguments must be a JSON object, "
                            f"got {type(args).__name__}")
    import inspect  # not at module level: it is slow to import

    kwargs = dict(args)
    op = facts_mod._FACTS[name]
    signature = inspect.signature(op)
    try:
        signature.bind_partial(**kwargs)  # unknown keywords first
        signature.bind(**kwargs)
    except TypeError as exc:
        accepted = ", ".join(signature.parameters) or "no arguments"
        raise ManifestError(f"fact {name!r}: {exc}; it accepts {accepted}") from None
    hints = typing.get_type_hints(op)
    for key, value in kwargs.items():
        expected = hints.get(key)
        if expected is None:
            continue  # pattern text (first, second) is parsed below
        union = typing.get_origin(expected) is Union
        allowed = typing.get_args(expected) if union else (expected,)
        if not _is_kind(value, allowed):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ManifestError(f"fact {name!r}: argument {key!r} must be {names}, "
                                f"got {value!r}")
    for key in ("first", "second"):
        if key in kwargs:
            kwargs[key] = [parse_pattern(t) for t in str(kwargs[key]).split("+")]
    return op(**kwargs)


def _resolve_grid(args: dict) -> list[float]:
    grid = args.get("p_grid")
    if isinstance(grid, list) and grid:
        return [_typed(p, "p_grid", float) for p in grid]
    if isinstance(grid, dict):
        _known_keys(grid, _GRID_KEYS, "p_grid key")
        per_decade = grid.get("per_decade", DEFAULT_PER_DECADE)
        return log_spaced_grid(_typed(_require(grid, "lo", "p_grid"), "lo", float),
                               _typed(_require(grid, "hi", "p_grid"), "hi", float),
                               _typed(per_decade, "per_decade", int))
    raise ManifestError("scan needs 'p_grid' as a nonempty list or {lo, hi, per_decade}")


def _build_base(descriptor):
    """A scan base from a family string such as "turan:12,4", or from an
    object with a string 'family' and, when given, a list 'args'; a
    base that build_family rejects is a ManifestError with its text."""
    if not isinstance(descriptor, (str, dict)):
        raise ManifestError(f"'bases' entries must be family strings or objects, "
                            f"got {descriptor!r}")
    try:
        return build_family(descriptor)
    except ValueError as exc:
        raise ManifestError(str(exc)) from None


def _run_scan(args: dict, seed: int):
    _known_keys(args, _SCAN_ARGS + ("time_budget",), "scan argument")
    descriptors = _require(args, "bases", "scan")
    if not isinstance(descriptors, list) or not descriptors:
        raise ManifestError(f"scan needs 'bases' as a nonempty list, got {descriptors!r}")
    bases = [_build_base(b) for b in descriptors]
    targets = parse_targets(_typed(_require(args, "targets", "scan"), "targets", str))
    grid = _resolve_grid(args)
    cache = args.get("cache", "none")  # a manifest stored without it searched every host
    order = args.get("order", "canonical")  # a manifest stored without it searched so
    for key, value, allowed in (("cache", cache, _CACHES), ("order", order, _ORDERS)):
        if value not in allowed:
            raise ManifestError(f"'{key}' must be {' or '.join(map(json.dumps, allowed))}, "
                                f"got {value!r}")
    return threshold_scan(
        bases, targets, grid, _typed(_require(args, "trials", "scan"), "trials", int), seed,
        node_budget=_typed(args.get("node_budget", DEFAULT_NODE_BUDGET), "node_budget", int),
        clique_shortcut=_typed(args.get("clique_shortcut", True), "clique_shortcut", bool),
        cache=cache, order=order)


def _strip_runtimes(obj):
    if isinstance(obj, dict):
        return {k: _strip_runtimes(v) for k, v in obj.items() if k != "runtime"}
    if isinstance(obj, list):
        return [_strip_runtimes(v) for v in obj]
    return obj


def _result_text(manifest: dict) -> str:
    """The canonical result-file contents for a resolved manifest."""
    op = manifest.get("op")
    args = manifest.get("args", {})
    if op == "scan":
        return _run_scan(args, manifest["seed"]).to_csv()
    if op == "facts":
        reports = [r.to_jsonable() for r in facts_mod.default_fact_suite()]
        return json.dumps(reports, indent=2) + "\n"
    if op == "fact":
        report = _fact_report(_require(manifest, "name", "fact"), args)
        return json.dumps(report.to_jsonable(), indent=2) + "\n"
    raise ManifestError(f"unknown op {op!r}")


def _check_manifest(manifest) -> dict:
    """The manifest, once it is a JSON object with an 'op' key, no key
    its op does not read, 'args', when given, a JSON object too, and
    the seed, when given, an integer."""
    if not isinstance(manifest, dict) or "op" not in manifest:
        raise ManifestError("manifest must be a JSON object with an 'op' key")
    op = manifest["op"]
    if isinstance(op, str) and op in _MANIFEST_KEYS:  # an unknown op is refused when run
        _known_keys(manifest, _MANIFEST_KEYS[op], f"{op} manifest key")
    args = manifest.get("args", {})
    if not isinstance(args, dict):
        raise ManifestError(f"manifest 'args' must be a JSON object, "
                            f"got {type(args).__name__}")
    if "seed" in manifest:
        _typed(manifest["seed"], "seed", int)
    return manifest


def load_manifest(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return _check_manifest(json.load(fh))


def run_experiment(manifest: Union[str, dict],
                   base_dir: Optional[str] = None) -> dict:
    """Execute a manifest, write results and the resolved manifest copy.

    Returns {"out": result path, "manifest": resolved-copy path,
    "resolved": the resolved manifest dict}.
    """
    if isinstance(manifest, str):
        base_dir = base_dir or os.path.dirname(os.path.abspath(manifest))
        manifest = load_manifest(manifest)
    else:
        _check_manifest(manifest)
    base_dir = base_dir or os.getcwd()
    resolved = copy.deepcopy(manifest)
    resolved["version"] = PACKAGE_VERSION
    if "seed" not in resolved:
        import secrets  # not at module level: it loads hashlib and libcrypto
        resolved["seed"] = secrets.randbits(63)
    if resolved["op"] == "scan":
        args = resolved.setdefault("args", {})
        args["p_grid"] = _resolve_grid(args)
        args.setdefault("node_budget", DEFAULT_NODE_BUDGET)
        args.setdefault("clique_shortcut", True)
        args.setdefault("cache", "monotone")
        args.setdefault("order", "degree")
    out_name = resolved.get("out")
    if not out_name:
        out_name = "results.csv" if resolved["op"] == "scan" else "results.json"
    text = _result_text(resolved)
    out_path = os.path.join(base_dir, out_name)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    manifest_path = out_path + ".manifest.json"
    resolved["out"] = os.path.basename(out_path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2)
        fh.write("\n")
    return {"out": out_path, "manifest": manifest_path, "resolved": resolved}


def replay(manifest_path: str) -> dict:
    """Re-run a resolved manifest and compare against the stored result.

    CSV results must match byte for byte; JSON fact reports are
    compared after zeroing the volatile runtime fields.  A package
    version change does not stop the replay but is reported.
    """
    manifest = load_manifest(manifest_path)
    if "seed" not in manifest:
        raise ManifestError("replay needs a resolved manifest with a seed")
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    out = _require(manifest, "out", "replay")
    stored_path = os.path.join(base_dir, out)
    if not os.path.exists(stored_path):
        # older manifests hold out as given to the run, relative to its
        # working directory; the result was still written beside them
        stored_path = os.path.join(base_dir, os.path.basename(out))
    with open(stored_path, encoding="utf-8") as fh:
        stored = fh.read()
    fresh = _result_text(manifest)
    if manifest["op"] == "scan":
        identical = stored == fresh
    else:
        identical = _strip_runtimes(json.loads(stored)) == _strip_runtimes(json.loads(fresh))
    report = {
        "op": manifest["op"],
        "out": stored_path,
        "identical": identical,
        "version_recorded": manifest.get("version"),
        "version_running": PACKAGE_VERSION,
    }
    if manifest.get("version") != PACKAGE_VERSION:
        report["version_mismatch"] = True
    if not identical:
        report["stored_bytes"] = len(stored)
        report["replayed_bytes"] = len(fresh)
    return report
