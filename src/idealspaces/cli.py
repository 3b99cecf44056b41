"""Command-line front end.

Verbs: ring, ideals, spectrum, topology, verify, search.  Exit codes:
0 success, 1 at least one theorem-form check failed, 2 usage or parse error,
3 an enumeration cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, IdealSpacesError, ParseError
from .exprs import parse_ring_expression
from .ideals import ALL_KINDS, classify, enumerate_ideals, jacobson_radical
from .spectra import check_mip, has_partition_of_unity, image_of_kernel, make_spectrum
from .topology import (
    generate_topology,
    is_connected,
    is_quasi_compact,
    is_sober,
    is_t0,
    is_t1,
)
from .verify import (
    ALL_CHECK_IDS,
    DEFAULT_SUITE_EXPRS,
    REGISTRY,
    SuiteConfig,
    run_suite,
    search_counterexamples,
)

_KIND_NAMES = tuple(k.value for k in ALL_KINDS)


def _ascii(s, enabled):
    return s.replace("⟨", "<").replace("⟩", ">") if enabled else s


def _build_parser():
    p = argparse.ArgumentParser(prog="idealspaces",
                                description="finite-ring ideal spaces toolkit")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, rings=True, kinds=False):
        if rings:
            sp.add_argument("--ring", action="append", required=False, default=[],
                            metavar="EXPR", help="ring expression (repeatable)")
        if kinds:
            sp.add_argument("--kind", action="append", default=[],
                            metavar="K", help=f"spectrum kind, one of {', '.join(_KIND_NAMES)}")
        sp.add_argument("--ascii", action="store_true",
                        help="ASCII ideal rendering in text mode")
        sp.add_argument("--out", metavar="PATH", help="write output to a file")
        sp.add_argument("--max-ideals", type=int, metavar="N")

    sp = sub.add_parser("ring", help="construct a ring and print its facts")
    common(sp)

    sp = sub.add_parser("ideals", help="enumerate the ideal lattice")
    common(sp)

    sp = sub.add_parser("spectrum", help="points, kernel image, and meet inclusion")
    common(sp, kinds=True)

    sp = sub.add_parser("topology", help="topological properties of an ideal space")
    common(sp, kinds=True)
    sp.add_argument("--props", default="t0,t1,sober,connected,quasicompact",
                    help="comma list from t0,t1,sober,connected,quasicompact")
    sp.add_argument("--max-closed-sets", type=int, metavar="N",
                    help="cap on the displayed closed family")

    sp = sub.add_parser("verify", help="run registry checks over rings x kinds")
    common(sp, kinds=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--check", action="append", default=[], metavar="ID|all")
    sp.add_argument("--timings", action="store_true",
                    help="record per-item runtimes (breaks byte-identical output)")

    sp = sub.add_parser("search", help="hunt counterexamples over a ring family")
    common(sp, rings=False, kinds=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--check", required=True, metavar="ID")
    sp.add_argument("--family", required=True, metavar="SPEC",
                    help="zmod:LO..HI or exprs:A,B,...")

    return p


def _caps_from(ns):
    given = {k: getattr(ns, k, None) for k in ("max_ideals", "max_closed_sets")}
    return replace(DEFAULT_CAPS, **{k: v for k, v in given.items() if v is not None})


def _kinds_from(ns):
    kinds = getattr(ns, "kind", []) or list(_KIND_NAMES)
    for k in kinds:
        if k not in _KIND_NAMES:
            raise ParseError(f"unknown kind {k!r}")
    return kinds


class _Out:
    def __init__(self, path):
        self.lines = []
        self.path = path

    def __call__(self, s=""):
        self.lines.append(s)

    def flush(self):
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _rings_from(ns, caps):
    exprs = ns.ring or list(DEFAULT_SUITE_EXPRS)
    return [(e, parse_ring_expression(e, caps)) for e in exprs]


def _cmd_ring(ns, out, caps):
    for expr, R in _rings_from(ns, caps):
        out(f"ring {R.label}: size {R.size}, zero {R.name(R.zero)}, one {R.name(R.one)}")
        out(f"  units: {{{', '.join(R.name(u) for u in R.units)}}}")
        out(f"  idempotents: {{{', '.join(R.name(e) for e in R.idempotents)}}}")
        out(f"  Jacobson radical: {_ascii(jacobson_radical(R, caps).name, ns.ascii)}")
    return 0


def _cmd_ideals(ns, out, caps):
    for expr, R in _rings_from(ns, caps):
        lat = enumerate_ideals(R, caps)
        out(f"ring {R.label}: {len(lat)} ideals")
        for a in lat.ideals:
            tags = [k.value for k in ALL_KINDS if a.proper and classify(a, k, caps)]
            label = _ascii(a.name, ns.ascii)
            out(f"  {label:<16} |{len(a):>3} elements | {','.join(tags)}")
    return 0


def _cmd_spectrum(ns, out, caps):
    for expr, R in _rings_from(ns, caps):
        for kv in _kinds_from(ns):
            spec = make_spectrum(R, kv, caps)
            pts = ", ".join(_ascii(p.name, ns.ascii) for p in spec.points)
            out(f"{spec.label}: {len(spec)} points [{pts}]")
            imk = ", ".join(_ascii(a.name, ns.ascii) for a in image_of_kernel(spec))
            out(f"  kernel image: [{imk}]")
            mip = check_mip(spec)
            out(f"  meet inclusion: {mip.status}"
                + (f" witness {_ascii(str(mip.witness), ns.ascii)}" if mip.fails else ""))
            out(f"  partition of unity: {has_partition_of_unity(spec)}")
    return 0


_PROPS = {"t0": is_t0, "t1": is_t1, "sober": is_sober,
          "connected": is_connected, "quasicompact": is_quasi_compact}


def _cmd_topology(ns, out, caps):
    props = [p.strip() for p in ns.props.split(",") if p.strip()]
    for prop in props:
        if prop not in _PROPS:
            raise ParseError(f"unknown property {prop!r}")
    for expr, R in _rings_from(ns, caps):
        for kv in _kinds_from(ns):
            spec = make_spectrum(R, kv, caps)
            T = generate_topology(spec, caps)
            out(f"{spec.label}: |subbase|={len(T.subbase_masks)} "
                f"|closed|={len(T.closed_masks)} discrete={T.is_discrete}")
            for prop in props:
                rep = _PROPS[prop](T)
                line = f"  {prop:<13} {rep.status}"
                if rep.fails and rep.witness:
                    line += f"  witness {_ascii(str(rep.witness), ns.ascii)}"
                out(line)
    return 0


def _cmd_verify(ns, out, caps):
    checks = ns.check or ["all"]
    if "all" in checks:
        checks = list(ALL_CHECK_IDS)
    for cid in checks:
        if cid not in REGISTRY:
            raise ParseError(f"unknown check {cid!r}")
    cfg = SuiteConfig(ring_exprs=tuple(ns.ring or DEFAULT_SUITE_EXPRS),
                      kinds=tuple(_kinds_from(ns)), checks=tuple(checks),
                      caps=caps, timings=ns.timings)
    records = run_suite(cfg)
    if ns.format == "json":
        for r in records:
            out(r.to_json())
    else:
        out(f"{'check':<6}{'ring':<12}{'kind':<6}{'status':<9}notes")
        for r in records:
            line = f"{r.id:<6}{r.ring:<12}{r.kind:<6}{r.status:<9}{_ascii(r.notes, ns.ascii)}"
            if r.status == "fails" and r.witness is not None:
                line += f"  witness {_ascii(str(r.witness), ns.ascii)}"
            out(line)
        tallies = {}
        for r in records:
            tallies[r.status] = tallies.get(r.status, 0) + 1
        out("totals: " + ", ".join(f"{k}={v}" for k, v in sorted(tallies.items())))
    if any(r.status == "error" for r in records):
        return 3
    theorem_fail = any(r.status == "fails" and REGISTRY[r.id].form == "theorem"
                       for r in records if r.id in REGISTRY)
    return 1 if theorem_fail else 0


def _cmd_search(ns, out, caps):
    if ns.check not in REGISTRY:
        raise ParseError(f"unknown check {ns.check!r}")
    results = search_counterexamples(ns.check, ns.family, _kinds_from(ns), caps)
    if ns.format == "json":
        import json
        for r in results:
            out(json.dumps(r, sort_keys=True, ensure_ascii=True))
    else:
        if not results:
            out("no counterexamples found")
        for r in results:
            out(f"{r['ring']:<12}{r['kind']:<6}|X|={r['points']:<4}"
                f"witness {_ascii(str(r['witness']), ns.ascii)}")
    return 0


_COMMANDS = {"ring": _cmd_ring, "ideals": _cmd_ideals, "spectrum": _cmd_spectrum,
             "topology": _cmd_topology, "verify": _cmd_verify, "search": _cmd_search}


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    out = _Out(ns.out)
    try:
        caps = _caps_from(ns)
        code = _COMMANDS[ns.verb](ns, out, caps)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IdealSpacesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
