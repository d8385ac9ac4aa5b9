"""The three benchmark workloads and the oracles that check their outputs.

Each workload class takes the seed and the source root.  `setup()`
imports the package afresh and prepares the inputs; `run_round(r)` runs one
round of fixed work and returns a `Round`; `check(round)` runs the oracles on
a finished round, outside the timed region, and fills in its failures.
Rounds differ in their inputs (braid rotations, cut and root arcs, query
order), so that a cache keyed on exact inputs does not turn later rounds
into replays.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import random
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import braids

CORPUS_FORMS = {
    "unknot": {0: 1}, "kink_pp": {0: 1}, "kink_pm": {0: 1},
    "trefoil": braids.torus_alexander(2, 3),
    "trefoil_left": braids.torus_alexander(2, 3),
    "figure8": braids.twist_alexander(2),
    "5_1": braids.torus_alexander(2, 5),
    "5_2": braids.twist_alexander(3),
    "6_1": braids.twist_alexander(4),
}

VERIFY_REPORTS = 129


def import_package(src):
    """Import `knotzeta` afresh from `src`, dropping any loaded copy first."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "knotzeta" or n.startswith("knotzeta.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return {name: importlib.import_module(f"knotzeta.{name}")
            for name in ("knot_model", "laurent", "arc_graph", "arborescence",
                         "alexander", "zeta", "twisted", "cli")}


def run_cli(cli, argv):
    """(exit code, stdout text) of one in-process `knotzeta` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, buf.getvalue()


def poly_json(poly):
    """A closed form {exponent: int} in the package's JSON polynomial shape."""
    return {str(e): c for e, c in sorted(poly.items())}


def canonical_json(obj):
    """Shift a JSON polynomial to least exponent 0 with positive leading term."""
    coeffs = {int(e): c for e, c in obj.items()}
    if not coeffs or not all(isinstance(c, int) for c in coeffs.values()):
        return obj
    low = min(coeffs)
    sign = 1 if coeffs[max(coeffs)] > 0 else -1
    return {str(e - low): sign * c for e, c in sorted(coeffs.items())}


@dataclass
class Item:
    label: str
    start: float  # perf_counter when the item began
    seconds: float
    outcome: object = None
    error: str | None = None


@dataclass
class Round:
    start: float  # perf_counter when the round began
    end: float  # and when it ended
    wall: float  # seconds spent in its items
    cpu: float
    items: list
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    emitted_bytes: int = 0
    expect: list = field(default_factory=list)  # what check() compares items with

    def fail(self, label, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")


def timed(fn, label):
    """Run fn(), catching any exception as the item's error."""
    start = time.perf_counter()
    try:
        outcome, error = fn(), None
    except Exception as exc:  # an exception is a failed item, not a dead run
        outcome, error = None, type(exc).__name__
    return Item(label, start, time.perf_counter() - start, outcome, error)


GOLDEN = (5 ** 0.5 - 1) / 2


def stepped(name, r):
    """`pick(n)` for round r: an index in range(n).  The k-th pick of every
    round starts at the same fixed phase and steps by the golden ratio from
    round to round, so the rounds of a run spread evenly over range(n) and
    every seed gets the same choices.  One input's cost can vary threefold
    with such choices (a knot's root and cut arcs); seeded choices moved the
    tail of a run by about 15% from seed to seed."""
    phase = random.Random(name).random
    return lambda n: int(n * ((phase() + r * GOLDEN) % 1.0))


def run_items(work, collect=False):
    """Time a list of (label, fn) items as one round.  With `collect`, a full
    garbage collection runs before each item, outside the timed region."""
    wall, cpu, items = 0.0, 0.0, []
    start = time.perf_counter()
    for label, fn in work:
        if collect:
            gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        items.append(timed(fn, label))
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
    return Round(start, time.perf_counter(), wall, cpu, items, attempted=len(items))


# -- verify --------------------------------------------------------------------


_SECONDS = re.compile(r',"seconds":[-+.0-9eE]+')


class Verify:
    """`knotzeta verify all --seed <seed> --json`, one pass per round.

    The oracle is the output recorded at the commit that introduced this
    benchmark (seed 0, `seconds` removed): every pass must reproduce it byte
    for byte apart from `seconds` and the seed echoed in the parameters.
    """

    items_per_round = VERIFY_REPORTS

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def setup(self):
        self.kz = import_package(self.root / "src")
        ref = (Path(__file__).parent / "reference" / "verify-seed0.jsonl").read_text()
        self.expected = ref.replace('"seed":0', f'"seed":{self.seed}').splitlines()

    def run_round(self, r):
        cli = self.kz["cli"]
        argv = ["verify", "all", "--seed", str(self.seed), "--json"]
        rnd = run_items([("verify", lambda: run_cli(cli, argv))])
        rnd.attempted = VERIFY_REPORTS
        return rnd

    def check(self, rnd):
        item = rnd.items[0]
        if item.error:
            rnd.fail("verify", f"raised {item.error}")
            rnd.failed = rnd.attempted
            return
        code, out = item.outcome
        rnd.emitted_bytes = len(out.encode())
        if code != 0:
            rnd.fail("verify", f"exit code {code}")
        got = [_SECONDS.sub("", line) for line in out.splitlines()]
        for i, want in enumerate(self.expected):
            line = got[i] if i < len(got) else None
            if line != want:
                rnd.fail(f"report {i}", "missing" if line is None else f"differs: {line[:120]}")
        if len(got) > len(self.expected):
            rnd.fail("verify", f"{len(got) - len(self.expected)} unexpected reports")
        rnd.failed = min(rnd.failed, rnd.attempted)


# -- polys ---------------------------------------------------------------------


def _polys_family():
    """(label, strands, word, closed form): braid closures with 7 to 21 crossings."""
    out = []
    for q in range(7, 22, 2):
        out.append((f"T(2,{q})", 2, braids.torus_word(2, q), braids.torus_alexander(2, q)))
    for q in (4, 5, 7, 8, 10):
        out.append((f"T(3,{q})", 3, braids.torus_word(3, q), braids.torus_alexander(3, q)))
    for m in range(3, 13):
        strands, word = braids.twist_word(m)
        out.append((f"twist({m})", strands, word, braids.twist_alexander(m)))
    return out


# (corpus knot, cable order): the cut-open cables reach 39 arcs
POLYS_CABLES = (("trefoil", 2), ("trefoil", 3), ("figure8", 2), ("figure8", 3),
                ("5_1", 2), ("5_2", 2))


class Polys:
    """The Alexander polynomial of each knot by three routes, plus cables.

    Routes: the Fox minor (`alexander_polynomial`), the matrix-tree
    determinant `det(laplacian(g, spec, (root,)))`, and `tangle_determinant`
    of the diagram cut at one arc.  All three must equal the closed form.  For
    a cable of a cut corpus knot, `det_cable == det_orig.substitute_power(n)`
    must hold exactly and `det_orig` must match the knot's closed form.
    """

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.family = _polys_family()
        self.items_per_round = len(self.family) + len(POLYS_CABLES)

    def setup(self):
        self.kz = import_package(self.root / "src")
        corpus = self.root / "src" / "knotzeta" / "corpus"
        self.corpus_text = {name: (corpus / f"{name}.knot").read_text()
                            for name, _ in POLYS_CABLES}

    def _inputs(self, r):
        """Round r's inputs: for each knot, its braid rotation and root and cut
        arcs (see `stepped`).  The seed orders each round's items."""
        pick = stepped("polys", r)
        knots = []
        for label, strands, word, form in self.family:
            n = len(word)
            text = braids.closure_text(strands, braids.rotate(word, pick(n)))
            knots.append((label, text, form, 1 + pick(n), 1 + pick(n)))
        cables = [(name, order, 1 + pick(3)) for name, order in POLYS_CABLES]
        return knots, cables

    def _routes(self, text, cut_arc, root_arc):
        kz = self.kz
        d = kz["knot_model"].parse_diagram(text)
        spec = kz["arc_graph"].alexander_spec()
        canon = kz["laurent"].canonicalize
        fox = kz["alexander"].alexander_polynomial(d).poly
        g = kz["arc_graph"].build_arc_graph(d)
        trees = canon(kz["laurent"].det(kz["arc_graph"].laplacian(g, spec, (root_arc,)))).poly
        tangle = kz["knot_model"].cut(d, [cut_arc])
        walks = canon(kz["arc_graph"].tangle_determinant(
            kz["arc_graph"].build_arc_graph(tangle), spec)).poly
        return fox.to_json(), trees.to_json(), walks.to_json()

    def _cable(self, name, order, cut_arc):
        kz = self.kz
        d = kz["knot_model"].parse_diagram(self.corpus_text[name])
        spec = kz["arc_graph"].alexander_spec()
        tangle = kz["knot_model"].cut(d, [min(cut_arc, d.n_arcs)])
        build, tdet = kz["arc_graph"].build_arc_graph, kz["arc_graph"].tangle_determinant
        det_orig = tdet(build(tangle), spec)
        det_cable = tdet(build(kz["knot_model"].cable(tangle, order)), spec)
        return (det_cable == det_orig.substitute_power(order),
                kz["laurent"].canonicalize(det_orig).poly.to_json())

    def run_round(self, r):
        knots, cables = self._inputs(r)
        entries = [(label, lambda t=text, c=cut, o=root: self._routes(t, c, o), poly_json(form))
                   for label, text, form, cut, root in knots]
        entries += [(f"cable({name},{order})", lambda n=name, o=order, c=cut: self._cable(n, o, c),
                     poly_json(CORPUS_FORMS[name])) for name, order, cut in cables]
        random.Random(f"polys/{self.seed}/{r}").shuffle(entries)
        rnd = run_items([(label, fn) for label, fn, _ in entries], collect=True)
        rnd.expect = [want for _, _, want in entries]
        return rnd

    def check(self, rnd):
        for item, want in zip(rnd.items, rnd.expect):
            if item.error:
                rnd.fail(item.label, f"raised {item.error}")
            elif item.label.startswith("cable"):
                exact, orig = item.outcome
                if not exact:
                    rnd.fail(item.label, "det_cable != det_orig(t^n)")
                elif orig != want:
                    rnd.fail(item.label, f"det_orig {orig} != closed form {want}")
            elif any(route != want for route in item.outcome):
                rnd.fail(item.label, f"routes {item.outcome} != closed form {want}")


# -- queries -------------------------------------------------------------------


def _monic_mod(form, q):
    lead_inv = pow(form[max(form)] % q, q - 2, q)
    return {str(e): c * lead_inv % q for e, c in sorted(form.items()) if c * lead_inv % q}


def _least_prime_one_mod(p):
    q = p + 1
    while q % p != 1 or any(q % k == 0 for k in range(2, int(q ** 0.5) + 1)):
        q += 1
    return q


class Queries:
    """A closed loop of single-invariant `cli.main` calls from one client.

    Every round sends each (command, knot) pair of a fixed table exactly once,
    in a seeded order, with cut arcs, root arcs and path-sum seeds that change
    from round to round (see `stepped`).
    The knots are the corpus plus generated braid closures of at most ten
    crossings; commands whose cost grows fast with size are restricted to the
    smaller knots so that every call stays in the millisecond range.
    """

    GENERATED = (("T(2,5)", 2, braids.torus_word(2, 5), braids.torus_alexander(2, 5)),
                 ("T(2,7)", 2, braids.torus_word(2, 7), braids.torus_alexander(2, 7)),
                 ("T(3,4)", 3, braids.torus_word(3, 4), braids.torus_alexander(3, 4)),
                 *((f"twist({m})", *braids.twist_word(m), braids.twist_alexander(m))
                   for m in range(2, 7)))

    # command -> (largest arc count it is sent for, schema of its output)
    COMMANDS = {"alexander": (10, "alexander"), "alexander-eq10": (10, "alexander"),
                "det": (10, "det"), "tree-poly": (10, "tree-poly"),
                "zeta-trace": (6, "verdict"), "zeta-path-sum": (6, "verdict"),
                "zeta-cable": (4, "verdict"), "zeta-euler": (3, "verdict"),
                "twisted": (10, "twisted"), "dihedral-3": (8, "twisted"),
                "dihedral-5": (8, "twisted"), "dihedral-7": (8, "twisted")}

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.workdir = root / ".perfbench" / "knots"
        self.validators = load_validators(root)

    def setup(self):
        self.kz = import_package(self.root / "src")
        pick = stepped("queries/knots", 0)
        parse = self.kz["knot_model"].parse_diagram
        self.knots = []  # (reference given to the cli, arcs, closed form)
        corpus = self.root / "src" / "knotzeta" / "corpus"
        for name, form in CORPUS_FORMS.items():
            arcs = parse((corpus / f"{name}.knot").read_text()).n_arcs
            self.knots.append((name, arcs, form))
        self.workdir.mkdir(parents=True, exist_ok=True)
        for label, strands, word, form in self.GENERATED:
            text = braids.closure_text(strands, braids.rotate(word, pick(len(word))))
            path = self.workdir / (re.sub(r"[^0-9a-z]+", "_", label.lower()).strip("_") + ".knot")
            path.write_text(text)
            self.knots.append((str(path), parse(text).n_arcs, form))
        self.table = [(cmd, knot) for cmd, (limit, _) in self.COMMANDS.items()
                      for knot in self.knots if knot[1] <= limit]
        self.items_per_round = len(self.table)

    @staticmethod
    def _argv(cmd, ref, arcs, pick):
        arc = str(1 + pick(arcs))
        if cmd == "alexander":
            return ["alexander", ref]
        if cmd == "alexander-eq10":
            return ["alexander", ref, "--convention", "eq10"]
        if cmd == "det":
            return ["det", ref]
        if cmd == "tree-poly":
            return ["tree-poly", ref, "--root", arc]
        if cmd == "zeta-trace":
            return ["zeta", ref, "--check", "trace", "--cut", arc]
        if cmd == "zeta-path-sum":
            return ["zeta", ref, "--check", "path-sum", "--cut", arc,
                    "--seed", str(pick(1000))]
        if cmd == "zeta-cable":
            return ["zeta", ref, "--check", "cable", "--cut", arc]
        if cmd == "zeta-euler":
            return ["zeta", ref, "--check", "euler", "--cut", arc]
        if cmd == "twisted":
            return ["twisted", ref]
        return ["twisted", ref, "--dihedral", cmd.split("-")[1]]

    def run_round(self, r):
        pick = stepped("queries", r)
        cli = self.kz["cli"]
        calls = [(cmd, self._argv(cmd, ref, arcs, pick), form)
                 for cmd, (ref, arcs, form) in self.table]
        random.Random(f"queries/{self.seed}/{r}").shuffle(calls)
        rnd = run_items([(" ".join(argv), lambda a=argv: run_cli(cli, a))
                         for _, argv, _ in calls])
        rnd.expect = calls
        return rnd

    def check(self, rnd):
        for item, (cmd, argv, form) in zip(rnd.items, rnd.expect):
            if item.error:
                rnd.fail(item.label, f"raised {item.error}")
                continue
            code, out = item.outcome
            rnd.emitted_bytes += len(out.encode())
            why = self._judge(cmd, argv, form, code, out)
            if why:
                rnd.fail(item.label, why)

    def _judge(self, cmd, argv, form, code, out):
        """None when the output is right, else the reason it is not."""
        try:
            obj = json.loads(out)
        except ValueError:
            return f"not one JSON document: {out[:80]!r}"
        det = braids.determinant(form)
        want_code = 0
        if cmd.startswith("dihedral"):
            p = int(cmd.split("-")[1])
            want_code = 0 if det % p == 0 else 2
        if code != want_code:
            return f"exit code {code}, expected {want_code}: {out[:120]}"
        schema = "error" if code == 2 else self.COMMANDS[cmd][1]
        errors = sorted(e.message for e in self.validators[schema].iter_errors(obj))
        if errors:
            return f"violates {schema}.json: {errors[0]}"
        want_poly = poly_json(form)
        if cmd.startswith("alexander"):
            if obj["poly"] != want_poly or obj["det"] != det:
                return f"poly/det {obj['poly']}/{obj['det']} != {want_poly}/{det}"
            if cmd == "alexander-eq10" and obj["eq10"] != {
                    "numerator": want_poly, "denominator": {"0": -1, "1": 1}, "exact": False}:
                return f"eq10 {obj['eq10']} != {want_poly}/(t - 1)"
        elif cmd == "det" and obj["det"] != det:
            return f"det {obj['det']} != {det}"
        elif cmd == "tree-poly" and (canonical_json(obj["poly"]) != want_poly
                                     or obj["roots"] != [argv[3]]):
            return f"tree poly {obj['poly']} is not a unit times {want_poly}"
        elif cmd.startswith("zeta") and not obj["passed"]:
            return f"check failed: {out[:120]}"
        elif cmd == "twisted":
            want = {"column": 1, "dim": 1, "field": 101,
                    "numerator": _monic_mod(form, 101),
                    "denominator": {"0": 100, "1": 1}}
            got = {"column": obj["column"], "dim": obj["dim"], "field": obj["field"],
                   "numerator": obj["numerator"]["coeffs"],
                   "denominator": obj["denominator"]["coeffs"]}
            if got != want:
                return f"trivial twisted {got} != Delta/(t - 1) mod 101 {want}"
        elif cmd.startswith("dihedral") and code == 0:
            q = _least_prime_one_mod(int(cmd.split("-")[1]))
            if obj["field"] != q or obj["dim"] != 2:
                return f"field/dim {obj['field']}/{obj['dim']} != {q}/2"
        return None


def load_validators(root):
    """One JSON Schema validator per file in `src/knotzeta/schemas/`."""
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource

    docs = [json.loads(p.read_text())
            for p in sorted((root / "src" / "knotzeta" / "schemas").glob("*.json"))]
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in docs)
    return {doc["$id"].rsplit("/", 1)[1][:-5]: Draft202012Validator(doc, registry=registry)
            for doc in docs}


WORKLOADS = {"verify": Verify, "polys": Polys, "queries": Queries}

