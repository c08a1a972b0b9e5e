"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished. Operations come in rounds; a
round is a fixed mix of operation kinds whose order and inputs are drawn
from the workload seed and the round index, so the same seed always gives
the same operation list. The library sees only the generated tables and
files: no FiniteGroup built by the benchmark is passed into a timed
operation, so per-object caches cannot turn repeats into cache hits.

Why these workloads:
- enumerate: the paper's enumeration oracle, in process. On the pure kernel
  the kernel dominates; on a compiled kernel from_table plus the
  isomorphism dedup dominate. Orders 16 and 20 emit many duplicate tables.
  Order 24 is left out: one pure call takes about 25 s, longer than a run.
- iso-queries: isomorphism decisions on freshly relabelled tables loaded
  through from_table, with no kernel work. Positives, fingerprint-rejected
  negatives and negatives that force an exhaustive search use the search
  differently.
- cli-large: one `python -m cayley.cli` process per command on large-order
  files, as CLI users pay for it, so a module-level cache cannot fake a gain.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cayley import core, enumeration, morphisms, products

HERE = Path(__file__).resolve().parent
CLITRACE = HERE / "clitrace.py"
CLI_EXPECTED = HERE / "cli_expected.json"

# Numbers of isomorphism classes (Besche-Eick-O'Brien small-groups census).
CENSUS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
          12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1, 18: 5, 19: 1, 20: 5}


class WrongAnswer(Exception):
    """An operation finished but its answer is wrong."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# Tables built by the benchmark itself, never by the library.


def cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def direct_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairs (x, y) packed as x * |B| + y, as products.direct_product does."""
    na, nb = len(a), len(b)
    return (a[:, None, :, None] * nb + b[None, :, None, :]).reshape(na * nb, na * nb)


def sdp_table(q: int, p: int, k: int) -> np.ndarray:
    """C_q x| C_p with the generator acting as r -> r^k; (n, h) packed as n * p + h."""
    n = np.arange(q)[:, None, None, None]
    h = np.arange(p)[None, :, None, None]
    n2 = np.arange(q)[None, None, :, None]
    h2 = np.arange(p)[None, None, None, :]
    scale = np.array([pow(k, j, q) for j in range(p)])[h]
    return (((n + scale * n2) % q) * p + (h + h2) % p).reshape(q * p, q * p)


def action_exponent(p: int, q: int) -> int:
    """Smallest k > 1 with k^p = 1 mod q, the canonical action."""
    return next(k for k in range(2, q) if pow(k, p, q) == 1)


def relabel(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The same group under a random relabelling that keeps 0 as identity."""
    n = len(table)
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


def table_text(table: np.ndarray, comment: str) -> str:
    rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    return f"# {comment}\n{len(table)}\n{rows}\n"


def check_witness(mapping, a: np.ndarray, b: np.ndarray) -> None:
    """Raise WrongAnswer unless mapping is an isomorphism from table a to b."""
    m = np.asarray(mapping)
    n = len(a)
    if m.shape != (n,):
        raise WrongAnswer(f"witness has length {m.size}, expected {n}")
    if m[0] != 0:
        raise WrongAnswer(f"witness sends the identity to {m[0]}")
    if not np.array_equal(np.sort(m), np.arange(n)):
        raise WrongAnswer("witness is not a bijection")
    bad = np.argwhere(m[a] != b[m[:, None], m[None, :]])
    if len(bad):
        x, y = bad[0]
        raise WrongAnswer(f"witness is not multiplicative at ({x}, {y})")


def element_stats(table: np.ndarray) -> list[tuple[int, int, int]]:
    """Per element: order, conjugacy-class size, order of its square.

    Equal sorted stats imply equal library fingerprints, and the library's
    isomorphism search then has to run to the end to reject a pair."""
    n = len(table)
    idx = np.arange(n)
    orders = np.zeros(n, dtype=np.int64)
    power = idx.copy()
    for k in range(1, n + 1):
        orders[(power == 0) & (orders == 0)] = k
        power = table[power, idx]
    class_sizes = n // (table == table.T).sum(axis=0)
    squares = orders[table[idx, idx]]
    return sorted(zip(orders.tolist(), class_sizes.tolist(), squares.tolist()))


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


class Workload:
    """One closed-loop workload; see the module docstring for the contract."""

    name = ""
    # Percentile reported as op_tail_ms. It is fixed per workload so that a
    # faster commit, which fits more operations into the same seconds, is
    # compared on the same statistic. A run measures at least enough rounds
    # for ten samples to lie beyond it (run.min_rounds).
    tail_pct = 75
    uses_kernel = False  # whether the timed phase may enter the kernel
    in_process = True

    def __init__(self) -> None:
        self.seed = 0

    def setup(self, seed: int) -> None:
        """Build the inputs for `seed`."""
        self.seed = seed

    def warm(self) -> None:
        """Run one small operation so lazy set-up is done before timing."""

    def round_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def prepare(self, op: Op):
        """Untimed: the inputs of one operation."""
        return op.args

    def execute(self, payload, tracer):
        """Timed: the operation itself."""
        raise NotImplementedError

    def check(self, op: Op, payload, result):
        """Untimed: raise WrongAnswer if wrong, else return a comparable output."""
        raise NotImplementedError


class Enumerate(Workload):
    name = "enumerate"
    tail_pct = 75
    uses_kernel = True

    def __init__(self, orders=(8, 12, 16, 18, 20)) -> None:
        super().__init__()
        self.orders = tuple(orders)

    def warm(self) -> None:
        enumeration.enumerate_groups(6)

    def round_ops(self, index: int) -> list[Op]:
        order = op_rng(self.seed, index).permutation(self.orders)
        return [Op("enumerate", (int(n),)) for n in order]

    def execute(self, payload, tracer):
        (n,) = payload
        return enumeration.enumerate_groups(n, budget=n)

    def check(self, op, payload, result):
        (n,) = payload
        if result.count != CENSUS[n]:
            raise WrongAnswer(f"order {n}: {result.count} classes, the census has {CENSUS[n]}")
        reps = sha256(b"".join(g.table.tobytes() for g in result.representatives))
        return (result.count, result.stats.tables_completed, result.stats.nodes, reps)


class IsoQueries(Workload):
    name = "iso-queries"
    tail_pct = 95
    # Per cyclic factor and round: query kinds and how many of each.
    MIX = (("isomorphic", 2), ("fingerprint", 1), ("exhaustive", 1))

    def __init__(self, factors=(1, 2, 3, 5, 7, 9)) -> None:
        super().__init__()
        self.factors = tuple(factors)
        self.pool: dict[int, list[np.ndarray]] = {}
        self.fingerprint_pairs: dict[int, list[tuple[int, int]]] = {}
        self.exhaustive_pairs: dict[int, list[tuple[int, int]]] = {}

    def setup(self, seed: int) -> None:
        """Pool: the 14 groups of order 16 times each cyclic factor.

        Ground truth comes from the construction: G x C_m and H x C_m are
        isomorphic iff G and H are (finite groups cancel direct factors),
        and distinct enumerated classes are not."""
        self.seed = seed
        base = enumeration.enumerate_groups(16).representatives
        for m in self.factors:
            cm = core.cyclic_group(m)
            tables = [np.array(products.direct_product(g, cm).group.table) for g in base]
            stats = [element_stats(t) for t in tables]
            orders = [sorted(s[0] for s in st) for st in stats]
            pairs = [(i, j) for i in range(len(tables)) for j in range(i + 1, len(tables))]
            self.pool[m] = tables
            self.fingerprint_pairs[m] = [(i, j) for i, j in pairs if orders[i] != orders[j]]
            self.exhaustive_pairs[m] = [(i, j) for i, j in pairs if stats[i] == stats[j]]
            if not self.exhaustive_pairs[m]:
                raise WrongAnswer(f"no fingerprint-colliding pair at order {16 * m}")

    def warm(self) -> None:
        t = cyclic_table(4).tolist()
        morphisms.find_isomorphism(core.from_table(4, t), core.from_table(4, t))

    def round_ops(self, index: int) -> list[Op]:
        rng = op_rng(self.seed, index)
        ops = []
        for m in self.factors:
            for kind, count in self.MIX:
                for _ in range(count):
                    if kind == "isomorphic":
                        i = j = int(rng.integers(len(self.pool[m])))
                    else:
                        pairs = (self.fingerprint_pairs if kind == "fingerprint"
                                 else self.exhaustive_pairs)[m]
                        i, j = pairs[int(rng.integers(len(pairs)))]
                        if rng.integers(2):
                            i, j = j, i
                    ops.append(Op(kind, (m, i, j, int(rng.integers(2**31)))))
        return [ops[k] for k in rng.permutation(len(ops))]

    def prepare(self, op: Op):
        m, i, j, seed = op.args
        rng = np.random.default_rng(seed)
        a = relabel(self.pool[m][i], rng)
        b = relabel(self.pool[m][j], rng)
        return a, b, a.tolist(), b.tolist()

    def execute(self, payload, tracer):
        _, _, rows_a, rows_b = payload
        n = len(rows_a)
        return morphisms.find_isomorphism(core.from_table(n, rows_a), core.from_table(n, rows_b))

    def check(self, op, payload, result):
        a, b, _, _ = payload
        if op.kind != "isomorphic":
            if result is not None:
                raise WrongAnswer(f"{op.kind} pair at order {len(a)} reported isomorphic")
            return None
        if result is None:
            raise WrongAnswer(f"isomorphic pair at order {len(a)} reported non-isomorphic")
        check_witness(result.forward.map, a, b)
        return sha256(np.asarray(result.forward.map).tobytes())


@dataclass(frozen=True)
class CliSizes:
    cyclic: int
    direct: tuple[int, int]
    sdp_q: int
    classify_q: int
    aut: tuple[int, int]
    iso: int
    recognize_q: int


# Sized so that a 35 s run on the pure backend completes 7 to 10 rounds of
# 7 commands; a run makes at least 6 rounds, which the p75 tail needs. Every command but aut builds or reads
# a group of order above 256, where validation switches to the
# generator-based associativity check and so to closure_indices.
LARGE = CliSizes(cyclic=768, direct=(4, 80), sdp_q=97, classify_q=103,
                 aut=(4, 4), iso=384, recognize_q=97)
TINY = CliSizes(cyclic=20, direct=(2, 4), sdp_q=7, classify_q=7, aut=(2, 2), iso=16,
                recognize_q=7)
# Commands whose stdout depends on the relabelling; they are checked by
# verifying the printed isomorphism instead of a recorded digest.
RELABELLED_STDOUT = ("classify", "iso")


class CliLarge(Workload):
    name = "cli-large"
    tail_pct = 75
    in_process = False

    def __init__(self, src: Path, work: Path, sizes: CliSizes = LARGE) -> None:
        super().__init__()
        self.work = work
        self.sizes = sizes
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.expected = json.loads(CLI_EXPECTED.read_text(encoding="ascii"))
        s = sizes
        self.tables = {
            "direct-a": cyclic_table(s.direct[0]),
            "direct-b": cyclic_table(s.direct[1]),
            "recognize": sdp_table(s.recognize_q, 3, action_exponent(3, s.recognize_q)),
            "classify": sdp_table(s.classify_q, 3, action_exponent(3, s.classify_q)),
            "aut": direct_table(cyclic_table(s.aut[0]), cyclic_table(s.aut[1])),
            "iso": cyclic_table(s.iso),
        }
        q = s.recognize_q
        self.commands = {
            "construct-cyclic": ["construct", "cyclic", str(s.cyclic),
                                 "--out", f"out-c{s.cyclic}.cayley"],
            "construct-direct": ["construct", "direct", f"c{s.direct[0]}.cayley",
                                 f"c{s.direct[1]}.cayley", "--out",
                                 f"out-c{s.direct[0]}xc{s.direct[1]}.cayley"],
            "construct-sdp": ["construct", "sdp", str(s.sdp_q), "3",
                              "--k", str(action_exponent(3, s.sdp_q)),
                              "--out", f"out-sdp{s.sdp_q}.cayley"],
            "classify": ["classify", f"rel-sdp{s.classify_q}.cayley"],
            "aut": ["aut", f"rel-c{s.aut[0]}xc{s.aut[1]}.cayley"],
            "iso": ["iso", f"rel-c{s.iso}-a.cayley", f"rel-c{s.iso}-b.cayley"],
            "recognize": ["recognize", f"sdp{q}.cayley",
                          "--n", ",".join(str(3 * i) for i in range(q)), "--h", "0,1,2"],
        }

    def _write(self, name: str, table: np.ndarray) -> None:
        (self.work / name).write_text(table_text(table, name), encoding="ascii")

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.work.mkdir(parents=True, exist_ok=True)
        s = self.sizes
        self._write(f"c{s.direct[0]}.cayley", self.tables["direct-a"])
        self._write(f"c{s.direct[1]}.cayley", self.tables["direct-b"])
        self._write(f"sdp{s.recognize_q}.cayley", self.tables["recognize"])

    def warm(self) -> None:
        subprocess.run([sys.executable, "-m", "cayley.cli", "construct", "cyclic", "4"],
                       cwd=self.work, env=self.env, capture_output=True, check=True, timeout=120)

    def round_ops(self, index: int) -> list[Op]:
        rng = op_rng(self.seed, index)
        names = list(self.commands)
        return [Op(names[k], (int(rng.integers(2**31)),)) for k in rng.permutation(len(names))]

    def prepare(self, op: Op):
        """Write this operation's freshly relabelled input files."""
        rng = np.random.default_rng(op.args[0])
        argv = self.commands[op.kind]
        inputs = {}
        if op.kind == "classify":
            inputs[argv[1]] = relabel(self.tables["classify"], rng)
        elif op.kind == "aut":
            inputs[argv[1]] = relabel(self.tables["aut"], rng)
        elif op.kind == "iso":
            inputs[argv[1]] = relabel(self.tables["iso"], rng)
            inputs[argv[2]] = relabel(self.tables["iso"], rng)
        for name, table in inputs.items():
            self._write(name, table)
        out = self.work / argv[-1] if "--out" in argv else None
        if out is not None and out.exists():
            out.unlink()
        return argv, inputs, out

    def execute(self, payload, tracer):
        argv = payload[0]
        if tracer is None:
            cmd = [sys.executable, "-m", "cayley.cli", *argv]
        else:
            trace_path = self.work / "trace.json"
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(CLITRACE), str(trace_path), "--", *argv]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True, timeout=150)
        if tracer is not None:
            tracer.merge(json.loads(trace_path.read_text(encoding="ascii")), tracer.op)
        return proc

    def check(self, op, payload, proc):
        argv, inputs, out = payload
        key = " ".join(argv)
        expected = self.expected.get(key)
        if expected is None:
            raise WrongAnswer(f"no recorded expectation for `{key}`")
        if proc.returncode != expected["exit"]:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise WrongAnswer(
                f"`{key}` exited {proc.returncode}, expected {expected['exit']}: {tail}")
        stdout = proc.stdout
        if "stdout" in expected and sha256(stdout) != expected["stdout"]:
            raise WrongAnswer(f"`{key}` stdout digest differs from the recorded one")
        if "file" in expected:
            if out is None or not out.exists():
                raise WrongAnswer(f"`{key}` wrote no output file")
            if sha256(out.read_bytes()) != expected["file"]:
                raise WrongAnswer(f"`{key}` output file digest differs from the recorded one")
        if op.kind == "classify":
            self._check_classify(stdout, inputs[argv[1]])
        elif op.kind == "iso":
            lines = stdout.decode().splitlines()
            if lines[:1] != ["isomorphic"]:
                raise WrongAnswer(f"`{key}` printed {lines[:1]}, expected isomorphic")
            check_witness(_map_line(lines), inputs[argv[1]], inputs[argv[2]])
        return proc.returncode, sha256(stdout), sha256(out.read_bytes()) if out else None

    def _check_classify(self, stdout: bytes, table: np.ndarray) -> None:
        q = self.sizes.classify_q
        k = action_exponent(3, q)
        lines = stdout.decode().splitlines()
        want = f"SemidirectQP p=3 q={q} k={k}"
        if lines[:1] != [want]:
            raise WrongAnswer(f"classify printed {lines[:1]}, expected {want!r}")
        check_witness(_map_line(lines), table, self.tables["classify"])


def _map_line(lines: list[str]) -> list[int]:
    if len(lines) < 2 or not lines[1].startswith("map: "):
        raise WrongAnswer("no `map:` line in the output")
    return [int(tok) for tok in lines[1][5:].split()]
